//! HPACK header compression (RFC 7541).
//!
//! This is a functional encoder/decoder pair, not a byte-count
//! approximation: header blocks produced by [`Encoder::encode`] decode
//! back to the original header list with [`Decoder::decode`], across the
//! full representation space — indexed lookups against the RFC 7541
//! Appendix A static table, a dynamic table with size-based eviction
//! (entry size = name + value + 32 octets, §4.1), literal representations
//! with and without indexing, dynamic-table size updates, and Huffman
//! string coding.
//!
//! HPACK's dynamic table is *the* reason the paper finds persistent DoH
//! connections amortise header bytes so well: the first request on a
//! connection pays literal header text, every later request with the same
//! headers pays one or two index bytes per header. The byte shrinkage
//! across consecutive queries in `examples/transport_shootout.rs` is this
//! module at work.
//!
//! # Borrowed in, borrowed out
//!
//! A header list is any slice of `(name, value)` pairs that read as
//! `&str` — a stack array of `(&str, &str)` on the simulator's hot path, a
//! `Vec<(String, String)>` where a caller already owns one — and
//! [`Encoder::encode_into`] appends its block to a buffer the caller
//! brings, so a HEADERS frame is written behind its own frame header with
//! no block in between. The only heap traffic of an encode is one
//! allocation per field that enters the dynamic table.
//!
//! [`Decoder::decode_with`] hands each field to a visitor as two `&str`s
//! and allocates only for a field that enters the dynamic table. Where a
//! field's bytes live depends on its representation: an indexed name or
//! value lies in the static table or in the decoder's dynamic table; a
//! literal string — Huffman-coded or raw — is decoded into a scratch
//! buffer the decoder owns and reuses from one field to the next. Either
//! way the borrow ends when the visitor returns: the next field overwrites
//! the scratch buffer, and the next insertion may evict the table entry.
//! [`Decoder::decode`] is that same walk collecting the fields into a
//! `Vec<(String, String)>`.
//!
//! # Huffman model
//!
//! The Huffman code is built canonically from a code-length table
//! (sorted by length, then symbol — exactly how RFC 7541 Appendix B
//! assigns its codes), so it is prefix-free by construction. Code lengths
//! for printable ASCII (0x20–0x7E) match Appendix B exactly, which makes
//! the canonical codes for that range *identical* to the RFC's; control
//! and non-ASCII octets — which never occur in the header text this
//! simulation produces — share a uniform 23-bit code instead of the RFC's
//! per-symbol 10–30-bit codes. Unfinished trailing bits are padded with
//! ones and validated on decode, as §5.2 requires.
//!
//! Decoding walks an automaton generated, at first use, from that same
//! code: one state per interior node of the code's binary trie, and for
//! each state a row of 16 transitions, one per value of the next four
//! input bits. A transition names the state the four bits lead to, the
//! symbol they completed on the way (the shortest code is five bits, so at
//! most one), or that they ran into a hole in the code space. The padding
//! rule is a property of the *state* the input ends in, not of the last
//! step taken: a state accepts when the path from the trie's root to it is
//! at most seven bits long and all ones. The code-length table stays the
//! only table written by hand.

use std::fmt;
use std::sync::OnceLock;

/// Default dynamic-table capacity, the SETTINGS_HEADER_TABLE_SIZE initial
/// value of RFC 7540 §6.5.2.
pub const DEFAULT_TABLE_SIZE: usize = 4096;

/// Per-entry bookkeeping overhead added to name + value lengths (§4.1).
pub const ENTRY_OVERHEAD: usize = 32;

/// The RFC 7541 Appendix A static table (1-indexed).
pub const STATIC_TABLE: [(&str, &str); 61] = [
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
];

/// A decode failure. Real HTTP/2 stacks treat any of these as a
/// connection-level COMPRESSION_ERROR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HpackError {
    /// The block ended in the middle of an instruction.
    Truncated,
    /// An index pointed past both tables.
    BadIndex(usize),
    /// A prefixed integer exceeded the implementation limit.
    IntegerOverflow,
    /// Huffman data did not decode to a whole number of symbols, used a
    /// hole in the code space, or ended with invalid padding.
    BadHuffman,
    /// A decoded string was not valid UTF-8 (this implementation stores
    /// header text as Rust strings).
    BadUtf8,
    /// A dynamic-table size update exceeded the configured maximum.
    TableSizeExceeded,
}

impl fmt::Display for HpackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HpackError::Truncated => write!(f, "header block truncated"),
            HpackError::BadIndex(i) => write!(f, "index {i} outside both tables"),
            HpackError::IntegerOverflow => write!(f, "prefixed integer too large"),
            HpackError::BadHuffman => write!(f, "invalid Huffman data"),
            HpackError::BadUtf8 => write!(f, "header text is not UTF-8"),
            HpackError::TableSizeExceeded => write!(f, "size update above the maximum"),
        }
    }
}

impl std::error::Error for HpackError {}

// ---------------------------------------------------------------------
// Prefixed integers (§5.1)
// ---------------------------------------------------------------------

/// Encodes `value` with an N-bit prefix, OR-ing the pattern bits of
/// `first_byte` into the first octet.
fn encode_int(out: &mut Vec<u8>, first_byte: u8, prefix_bits: u8, mut value: usize) {
    let max_prefix = (1usize << prefix_bits) - 1;
    if value < max_prefix {
        out.push(first_byte | value as u8);
        return;
    }
    out.push(first_byte | max_prefix as u8);
    value -= max_prefix;
    while value >= 128 {
        out.push((value % 128) as u8 | 0x80);
        value /= 128;
    }
    out.push(value as u8);
}

/// Decodes an N-bit-prefixed integer starting at `*pos`, advancing it.
fn decode_int(buf: &[u8], pos: &mut usize, prefix_bits: u8) -> Result<usize, HpackError> {
    let first = *buf.get(*pos).ok_or(HpackError::Truncated)?;
    *pos += 1;
    let max_prefix = (1usize << prefix_bits) - 1;
    let mut value = usize::from(first) & max_prefix;
    if value < max_prefix {
        return Ok(value);
    }
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(HpackError::Truncated)?;
        *pos += 1;
        // Cap far above any sane header size but far below overflow.
        if shift > 28 {
            return Err(HpackError::IntegerOverflow);
        }
        value += usize::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------
// Huffman coding (§5.2, Appendix B code lengths for printable ASCII)
// ---------------------------------------------------------------------

/// Code length in bits for each symbol 0..=255 (no explicit EOS symbol:
/// it is never encoded, and padding is validated as all-one bits).
fn code_lengths() -> [u8; 256] {
    let mut len = [23u8; 256];
    // NUL is the one symbol outside printable ASCII with a short RFC code
    // (13 bits); it sits before '$' in the canonical order, so including
    // it keeps every code from 13 bits up aligned with Appendix B.
    len[0] = 13;
    for (bits, symbols) in [
        (5, "012aceiost".as_bytes()),
        (6, b" %-./3456789=A_bdfghlmnpru".as_slice()),
        (7, b":BCDEFGHIJKLMNOPQRSTUVWYjkqvwxyz".as_slice()),
        (8, b"&*,;XZ".as_slice()),
        (10, b"!\"()?".as_slice()),
        (11, b"'+|".as_slice()),
        (12, b"#>".as_slice()),
        (13, b"$@[]~".as_slice()),
        (14, b"^}".as_slice()),
        (15, b"<`{".as_slice()),
        (19, b"\\".as_slice()),
    ] {
        for &s in symbols {
            len[usize::from(s)] = bits;
        }
    }
    len
}

/// One transition of the decode automaton: what four input bits do to a
/// state. Four octets, so a state's 16 transitions are one cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Step {
    /// The state the four bits lead to.
    next: u16,
    /// The symbol they completed on the way, under [`Step::EMIT`].
    symbol: u8,
    flags: u8,
}

impl Step {
    /// The bits completed `symbol`.
    const EMIT: u8 = 1;
    /// The bits left the code: a hole in the code space.
    const HOLE: u8 = 2;
}

/// The built Huffman code: per-symbol (code, length) for the encoder, and
/// for the decoder an automaton that consumes four bits a step — one state
/// per interior node of the code's trie, state 0 its root.
struct Huffman {
    codes: [(u32, u8); 256],
    steps: Vec<[Step; 16]>,
    /// Whether the input may end in a state: the bits since the last whole
    /// symbol are at most seven and all ones (§5.2 padding).
    accept: Vec<bool>,
}

/// The canonical code's binary trie in a flat node array: `[left, right]`
/// per interior node, the root first; a negative child is the leaf
/// `!symbol`, 0 is a hole in the code space.
fn code_trie(codes: &[(u32, u8); 256]) -> Vec<[i32; 2]> {
    let mut trie: Vec<[i32; 2]> = vec![[0, 0]];
    for (sym, &(code, len)) in codes.iter().enumerate() {
        let mut node = 0usize;
        for i in (0..len).rev() {
            let bit = ((code >> i) & 1) as usize;
            if i == 0 {
                trie[node][bit] = !(sym as i32);
            } else {
                if trie[node][bit] == 0 {
                    trie.push([0, 0]);
                    trie[node][bit] = (trie.len() - 1) as i32;
                }
                node = trie[node][bit] as usize;
            }
        }
    }
    trie
}

impl Huffman {
    fn get() -> &'static Huffman {
        static TABLE: OnceLock<Huffman> = OnceLock::new();
        TABLE.get_or_init(Huffman::build)
    }

    fn build() -> Huffman {
        let lengths = code_lengths();
        let mut order: Vec<u16> = (0..256).collect();
        order.sort_by_key(|&s| (lengths[usize::from(s)], s));
        let mut codes = [(0u32, 0u8); 256];
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for &sym in &order {
            let len = lengths[usize::from(sym)];
            if prev_len != 0 {
                code += 1;
            }
            code <<= len - prev_len;
            prev_len = len;
            debug_assert!(len == 32 || code < (1 << len), "code lengths violate Kraft");
            codes[usize::from(sym)] = (code, len);
        }
        let trie = code_trie(&codes);
        let steps = (0..trie.len())
            .map(|state| {
                let mut row = [Step::default(); 16];
                for (nibble, step) in row.iter_mut().enumerate() {
                    let mut node = state;
                    for i in (0..4).rev() {
                        let next = trie[node][(nibble >> i) & 1];
                        match next.cmp(&0) {
                            std::cmp::Ordering::Less => {
                                debug_assert_eq!(step.flags, 0, "codes are longer than a step");
                                (step.symbol, step.flags) = (!next as u8, Step::EMIT);
                                node = 0;
                            }
                            std::cmp::Ordering::Equal => {
                                step.flags = Step::HOLE;
                                break;
                            }
                            std::cmp::Ordering::Greater => node = next as usize,
                        }
                    }
                    step.next = node as u16;
                }
                row
            })
            .collect();
        // The accepting states are the root and the first seven nodes down
        // its all-ones spine.
        let mut accept = vec![false; trie.len()];
        let mut node = 0usize;
        for _ in 0..8 {
            accept[node] = true;
            match trie[node][1] {
                next if next > 0 => node = next as usize,
                _ => break,
            }
        }
        Huffman { codes, steps, accept }
    }

    /// Octets `input` Huffman-codes to: the code lengths summed, rounded
    /// up to a whole octet — no trial encoding.
    fn coded_len(&self, input: &[u8]) -> usize {
        let bits: usize = input.iter().map(|&b| usize::from(self.codes[usize::from(b)].1)).sum();
        bits.div_ceil(8)
    }

    /// Appends the Huffman coding of `input`, padding the final partial
    /// octet with one bits.
    fn encode_into(&self, input: &[u8], out: &mut Vec<u8>) {
        let mut acc = 0u64;
        let mut bits = 0u8;
        for &byte in input {
            let (code, len) = self.codes[usize::from(byte)];
            acc = (acc << len) | u64::from(code);
            bits += len;
            while bits >= 8 {
                bits -= 8;
                out.push((acc >> bits) as u8);
            }
        }
        if bits > 0 {
            // EOS-prefix padding: all ones.
            out.push(((acc << (8 - bits)) as u8) | (0xFF >> bits));
        }
    }

    /// Appends the bytes `input` decodes to, validating the padding.
    fn decode_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<(), HpackError> {
        let mut state = 0usize;
        for &byte in input {
            for nibble in [byte >> 4, byte & 0x0F] {
                let step = self.steps[state][usize::from(nibble)];
                match step.flags {
                    0 => {}
                    Step::EMIT => out.push(step.symbol),
                    _ => return Err(HpackError::BadHuffman),
                }
                state = usize::from(step.next);
            }
        }
        if self.accept[state] {
            Ok(())
        } else {
            Err(HpackError::BadHuffman)
        }
    }
}

/// Huffman-encodes `input`, padding the final partial octet with one bits.
pub fn huffman_encode(input: &[u8]) -> Vec<u8> {
    let table = Huffman::get();
    let mut out = Vec::with_capacity(table.coded_len(input));
    table.encode_into(input, &mut out);
    out
}

/// Decodes Huffman `input` back to raw bytes, validating the padding.
pub fn huffman_decode(input: &[u8]) -> Result<Vec<u8>, HpackError> {
    let mut out = Vec::with_capacity(input.len() * 8 / 5);
    Huffman::get().decode_into(input, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// String literals (§5.2)
// ---------------------------------------------------------------------

/// Writes a string literal, Huffman-coded only when that is shorter (the
/// choice every production encoder makes).
fn encode_string(out: &mut Vec<u8>, s: &str) {
    let table = Huffman::get();
    let coded_len = table.coded_len(s.as_bytes());
    if coded_len < s.len() {
        encode_int(out, 0x80, 7, coded_len);
        table.encode_into(s.as_bytes(), out);
    } else {
        encode_int(out, 0x00, 7, s.len());
        out.extend_from_slice(s.as_bytes());
    }
}

/// Appends the text of the string literal at `*pos` to `scratch`,
/// advancing `*pos` past it; what it appended is valid UTF-8.
fn decode_string(buf: &[u8], pos: &mut usize, scratch: &mut Vec<u8>) -> Result<(), HpackError> {
    let huffman = *buf.get(*pos).ok_or(HpackError::Truncated)? & 0x80 != 0;
    let len = decode_int(buf, pos, 7)?;
    let end = pos.checked_add(len).ok_or(HpackError::IntegerOverflow)?;
    let raw = buf.get(*pos..end).ok_or(HpackError::Truncated)?;
    *pos = end;
    let start = scratch.len();
    if huffman {
        // The shortest code is five bits.
        scratch.reserve(raw.len() * 8 / 5);
        Huffman::get().decode_into(raw, scratch)?;
    } else {
        scratch.extend_from_slice(raw);
    }
    std::str::from_utf8(&scratch[start..]).map(drop).map_err(|_| HpackError::BadUtf8)
}

// ---------------------------------------------------------------------
// Dynamic table (§4)
// ---------------------------------------------------------------------

/// One dynamic-table entry: name and value back to back in a single
/// allocation.
#[derive(Debug)]
struct Entry {
    text: Box<str>,
    name_len: usize,
}

impl Entry {
    fn new(name: &str, value: &str) -> Entry {
        let mut text = String::with_capacity(name.len() + value.len());
        text.push_str(name);
        text.push_str(value);
        Entry { text: text.into_boxed_str(), name_len: name.len() }
    }

    fn field(&self) -> (&str, &str) {
        self.text.split_at(self.name_len)
    }
}

/// The dynamic table both endpoints of a direction maintain in lockstep.
#[derive(Debug, Default)]
struct DynTable {
    /// Newest first: `entries[0]` is index 62.
    entries: std::collections::VecDeque<Entry>,
    /// Sum of entry sizes (name + value + 32 each).
    size: usize,
    /// Current capacity (≤ `max_size`).
    capacity: usize,
}

impl DynTable {
    fn new(capacity: usize) -> DynTable {
        DynTable { capacity, ..DynTable::default() }
    }

    fn evict_to(&mut self, limit: usize) {
        while self.size > limit {
            let entry = self.entries.pop_back().expect("size > 0 implies entries");
            self.size -= entry.text.len() + ENTRY_OVERHEAD;
        }
    }

    /// Adds `entry` as index 62, evicting from the old end to make room.
    fn insert(&mut self, entry: Entry) {
        let size = entry.text.len() + ENTRY_OVERHEAD;
        if size > self.capacity {
            // An oversized entry empties the table and is not inserted.
            self.evict_to(0);
            return;
        }
        self.evict_to(self.capacity - size);
        self.size += size;
        self.entries.push_front(entry);
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.evict_to(capacity);
    }

    /// Resolves an index against the static then dynamic table.
    fn lookup(&self, index: usize) -> Result<(&str, &str), HpackError> {
        let at = index.checked_sub(1).ok_or(HpackError::BadIndex(0))?;
        let field = match STATIC_TABLE.get(at) {
            Some(&field) => Some(field),
            None => self.entries.get(at - STATIC_TABLE.len()).map(Entry::field),
        };
        field.ok_or(HpackError::BadIndex(index))
    }
}

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

/// The index of the first of `fields` — indexed from `first` — that is
/// exactly `(name, value)`; the first whose name matches on the way to it
/// goes into `name_index` unless one is there already.
fn find_field<'a>(
    fields: impl Iterator<Item = (&'a str, &'a str)>,
    first: usize,
    name: &str,
    value: &str,
    name_index: &mut Option<usize>,
) -> Option<usize> {
    for ((n, v), index) in fields.zip(first..) {
        if n == name {
            if v == value {
                return Some(index);
            }
            name_index.get_or_insert(index);
        }
    }
    None
}

/// A stateful HPACK encoder for one direction of one connection.
#[derive(Debug)]
pub struct Encoder {
    table: DynTable,
    /// Capacity change to announce in the next header block (§6.3).
    pending_capacity: Option<usize>,
}

impl Default for Encoder {
    fn default() -> Encoder {
        Encoder::new()
    }
}

impl Encoder {
    /// An encoder with the default 4096-octet dynamic table.
    pub fn new() -> Encoder {
        Encoder::with_capacity(DEFAULT_TABLE_SIZE)
    }

    /// An encoder with an explicit dynamic-table capacity.
    pub fn with_capacity(capacity: usize) -> Encoder {
        Encoder { table: DynTable::new(capacity), pending_capacity: None }
    }

    /// Schedules a dynamic-table capacity change; the size-update
    /// instruction is emitted at the start of the next header block.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.pending_capacity = Some(capacity);
    }

    /// Current dynamic-table occupancy in octets (for tests and reports).
    pub fn table_size(&self) -> usize {
        self.table.size
    }

    /// Number of dynamic-table entries.
    pub fn table_entries(&self) -> usize {
        self.table.entries.len()
    }

    /// Encodes `headers` into one header block, updating the dynamic
    /// table exactly as the peer's [`Decoder`] will.
    pub fn encode<N: AsRef<str>, V: AsRef<str>>(&mut self, headers: &[(N, V)]) -> Vec<u8> {
        // Room for a block of mostly literals without regrowing.
        let mut out = Vec::with_capacity(16 * headers.len());
        self.encode_into(headers, &mut out);
        out
    }

    /// [`Encoder::encode`], the block appended to `out`.
    pub fn encode_into<N: AsRef<str>, V: AsRef<str>>(
        &mut self,
        headers: &[(N, V)],
        out: &mut Vec<u8>,
    ) {
        if let Some(capacity) = self.pending_capacity.take() {
            encode_int(out, 0x20, 5, capacity);
            self.table.set_capacity(capacity);
        }
        for (name, value) in headers {
            self.encode_header(out, name.as_ref(), value.as_ref());
        }
    }

    fn encode_header(&mut self, out: &mut Vec<u8>, name: &str, value: &str) {
        // The lowest index that matches the whole field, and on the way
        // to it the lowest whose name matches: the static table first,
        // then the dynamic entries, newest first.
        let mut name_index = None;
        let statics = STATIC_TABLE.iter().copied();
        let dynamics = self.table.entries.iter().map(Entry::field);
        let exact = find_field(statics, 1, name, value, &mut name_index)
            .or_else(|| find_field(dynamics, STATIC_TABLE.len() + 1, name, value, &mut name_index));
        if let Some(index) = exact {
            // Exact match → one indexed instruction.
            encode_int(out, 0x80, 7, index);
            return;
        }
        // Literal with incremental indexing, reusing an indexed name when
        // one exists; both sides add the entry to their dynamic table.
        match name_index {
            Some(index) => encode_int(out, 0x40, 6, index),
            None => {
                out.push(0x40);
                encode_string(out, name);
            }
        }
        encode_string(out, value);
        self.table.insert(Entry::new(name, value));
    }
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

/// A stateful HPACK decoder for one direction of one connection.
#[derive(Debug)]
pub struct Decoder {
    table: DynTable,
    /// Upper bound a size update may set (SETTINGS_HEADER_TABLE_SIZE).
    max_capacity: usize,
    /// The literal strings of the field being decoded, name first.
    scratch: Vec<u8>,
}

impl Default for Decoder {
    fn default() -> Decoder {
        Decoder::new()
    }
}

impl Decoder {
    /// A decoder with the default 4096-octet dynamic table.
    pub fn new() -> Decoder {
        Decoder::with_capacity(DEFAULT_TABLE_SIZE)
    }

    /// A decoder whose dynamic table starts (and is capped) at `capacity`.
    pub fn with_capacity(capacity: usize) -> Decoder {
        Decoder { table: DynTable::new(capacity), max_capacity: capacity, scratch: Vec::new() }
    }

    /// Current dynamic-table occupancy in octets.
    pub fn table_size(&self) -> usize {
        self.table.size
    }

    /// Decodes one complete header block into an owned header list.
    pub fn decode(&mut self, block: &[u8]) -> Result<Vec<(String, String)>, HpackError> {
        let mut headers = Vec::new();
        self.decode_with(block, |name, value| headers.push((name.to_string(), value.to_string())))?;
        Ok(headers)
    }

    /// Decodes one complete header block, handing each field to `field`
    /// as `(name, value)` in block order. The strings are borrowed from
    /// the decoder (see the module docs) for the duration of the call
    /// only. On an error the fields before it have been handed out and the
    /// dynamic table holds their insertions: the connection is lost.
    pub fn decode_with(
        &mut self,
        block: &[u8],
        mut field: impl FnMut(&str, &str),
    ) -> Result<(), HpackError> {
        let mut pos = 0usize;
        while pos < block.len() {
            let first = block[pos];
            if first & 0x80 != 0 {
                // Indexed header field.
                let (name, value) = self.table.lookup(decode_int(block, &mut pos, 7)?)?;
                field(name, value);
            } else if first & 0xE0 == 0x20 {
                // Dynamic-table size update.
                let capacity = decode_int(block, &mut pos, 5)?;
                if capacity > self.max_capacity {
                    return Err(HpackError::TableSizeExceeded);
                }
                self.table.set_capacity(capacity);
            } else {
                // Literal: with incremental indexing (01), without
                // indexing (0000) or never indexed (0001).
                let indexing = first & 0x40 != 0;
                let name_index = decode_int(block, &mut pos, if indexing { 6 } else { 4 })?;
                self.scratch.clear();
                let indexed_name = match name_index {
                    0 => {
                        decode_string(block, &mut pos, &mut self.scratch)?;
                        None
                    }
                    index => Some(self.table.lookup(index)?.0),
                };
                let name_len = self.scratch.len();
                decode_string(block, &mut pos, &mut self.scratch)?;
                let text = std::str::from_utf8(&self.scratch)
                    .expect("each literal was validated as it was decoded");
                let (literal_name, value) = text.split_at(name_len);
                let name = indexed_name.unwrap_or(literal_name);
                field(name, value);
                if indexing {
                    let entry = Entry::new(name, value);
                    self.table.insert(entry);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(name: &str, value: &str) -> (String, String) {
        (name.to_string(), value.to_string())
    }

    #[test]
    fn canonical_codes_match_rfc7541_for_printable_ascii() {
        let table = Huffman::get();
        // Spot checks straight out of RFC 7541 Appendix B.
        assert_eq!(table.codes[b'0' as usize], (0x0, 5));
        assert_eq!(table.codes[b'a' as usize], (0x3, 5));
        assert_eq!(table.codes[b' ' as usize], (0x14, 6));
        assert_eq!(table.codes[b'-' as usize], (0x16, 6));
        assert_eq!(table.codes[b':' as usize], (0x5c, 7));
        assert_eq!(table.codes[b'&' as usize], (0xf8, 8));
        assert_eq!(table.codes[b'?' as usize], (0x3fc, 10));
        assert_eq!(table.codes[b'#' as usize], (0xffa, 12));
        assert_eq!(table.codes[b'\\' as usize], (0x7fff0, 19));
    }

    #[test]
    fn huffman_round_trips_header_text() {
        for s in
            ["www.example.com", "no-cache", "application/dns-message", "/dns-query?dns=AAAB", ""]
        {
            let coded = huffman_encode(s.as_bytes());
            assert_eq!(huffman_decode(&coded).unwrap(), s.as_bytes());
            // Typical header text compresses (~5-6.5 bits per char).
            if s.len() > 4 {
                assert!(coded.len() < s.len(), "{s:?} did not shrink");
            }
        }
    }

    #[test]
    fn huffman_round_trips_every_byte_value() {
        let all: Vec<u8> = (0..=255u8).collect();
        let coded = huffman_encode(&all);
        assert_eq!(huffman_decode(&coded).unwrap(), all);
    }

    #[test]
    fn huffman_rejects_bad_padding() {
        // "0" = 00000 followed by 0-padding (must be 1-padding).
        assert_eq!(huffman_decode(&[0x00]), Err(HpackError::BadHuffman));
        // A whole byte of padding is never valid.
        let mut coded = huffman_encode(b"ab");
        coded.push(0xFF);
        assert_eq!(huffman_decode(&coded), Err(HpackError::BadHuffman));
    }

    /// The decoder the automaton replaced, kept as its reference: one trie
    /// edge per input bit, the padding rule spelled out.
    fn huffman_decode_bitwise(trie: &[[i32; 2]], input: &[u8]) -> Result<Vec<u8>, HpackError> {
        let mut out = Vec::new();
        let mut node = 0usize;
        // Bits consumed since the last completed symbol, and whether they were
        // all ones (the only valid padding, at most 7 bits of it).
        let mut partial_bits = 0u8;
        let mut partial_all_ones = true;
        for &byte in input {
            for i in (0..8).rev() {
                let bit = usize::from((byte >> i) & 1);
                partial_all_ones &= bit == 1;
                partial_bits += 1;
                let next = trie[node][bit];
                match next.cmp(&0) {
                    std::cmp::Ordering::Less => {
                        out.push(!next as u8);
                        node = 0;
                        partial_bits = 0;
                        partial_all_ones = true;
                    }
                    std::cmp::Ordering::Equal => return Err(HpackError::BadHuffman),
                    std::cmp::Ordering::Greater => node = next as usize,
                }
            }
        }
        if partial_bits >= 8 || !partial_all_ones {
            return Err(HpackError::BadHuffman);
        }
        Ok(out)
    }

    /// SplitMix64, as in `tests/prop.rs`.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn automaton_agrees_with_the_bit_at_a_time_decoder() {
        let trie = code_trie(&Huffman::get().codes);
        for seed in 0..4096u64 {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15);
            let mut below = |n: u64| splitmix(&mut state) % n;
            // Header text, every byte value from a seeded start, or bytes
            // at large.
            let plain: Vec<u8> = match seed % 3 {
                0 => (0..below(60)).map(|_| (0x20 + below(0x5F)) as u8).collect(),
                1 => (0..=255u8).map(|b| b.wrapping_add(seed as u8)).collect(),
                _ => (0..below(100)).map(|_| below(256) as u8).collect(),
            };
            let coded = huffman_encode(&plain);
            assert_eq!(huffman_decode(&coded).as_ref(), Ok(&plain), "seed {seed}");
            assert_eq!(huffman_decode_bitwise(&trie, &coded).as_ref(), Ok(&plain), "seed {seed}");
            // The damage `Gen::mutate` does: truncate, flip a bit, splice in
            // a span of another coding, saturate a run, append garbage.
            let mut damaged = coded.clone();
            match below(5) {
                0 => damaged.truncate(below(coded.len() as u64 + 1) as usize),
                1 if !damaged.is_empty() => {
                    let at = below(damaged.len() as u64) as usize;
                    damaged[at] ^= 1 << below(8);
                }
                2 if !damaged.is_empty() => {
                    let donor = huffman_encode(&[below(256) as u8, b'a', below(256) as u8, b'?']);
                    let at = below(damaged.len() as u64) as usize;
                    let end = (at + donor.len()).min(damaged.len());
                    damaged.splice(at..end, donor);
                }
                3 if !damaged.is_empty() => {
                    let at = below(damaged.len() as u64) as usize;
                    let end = (at + 1 + below(20) as usize).min(damaged.len());
                    damaged[at..end].fill(0xFF);
                }
                _ => damaged.extend((0..below(8)).map(|_| below(256) as u8)),
            }
            assert_eq!(
                huffman_decode(&damaged),
                huffman_decode_bitwise(&trie, &damaged),
                "seed {seed}: {damaged:02x?}"
            );
        }
        // Every input of one and two octets: all the ways a symbol boundary,
        // a hole and the end of input can fall inside a step.
        for input in 0..=0xFFFFu16 {
            let octets = input.to_be_bytes();
            for input in [&octets[1..], &octets[..]] {
                assert_eq!(
                    huffman_decode(input),
                    huffman_decode_bitwise(&trie, input),
                    "{input:02x?}"
                );
            }
        }
    }

    /// `bits` ("0"/"1" text) packed into octets; the last is filled up with
    /// ones.
    fn octets(bits: &str) -> Vec<u8> {
        let mut bits: Vec<u8> = bits.bytes().map(|b| b - b'0').collect();
        bits.resize(bits.len().next_multiple_of(8), 1);
        bits.chunks(8).map(|octet| octet.iter().fold(0, |acc, bit| acc << 1 | bit)).collect()
    }

    #[test]
    fn padding_is_judged_by_the_state_the_input_ends_in() {
        let table = Huffman::get();
        let bits_of = |text: &str| -> String {
            text.bytes()
                .map(|b| {
                    let (code, len) = table.codes[usize::from(b)];
                    format!("{code:0len$b}", len = usize::from(len))
                })
                .collect()
        };
        // Texts of 8, 7, … 1 bits modulo 8: 0 to 7 bits of padding.
        for (pad, text) in ["&", ":", " ", "0", "0:", "0 ", "00", "00:"].into_iter().enumerate() {
            let bits = bits_of(text);
            assert_eq!((8 - bits.len() % 8) % 8, pad, "{text:?}");
            let ones = "1".repeat(pad);
            assert_eq!(huffman_decode(&octets(&format!("{bits}{ones}"))).unwrap(), text.as_bytes());
            // A whole octet more of ones is 8 to 15 bits of padding: never
            // valid, though each of its steps is all ones.
            let longer = octets(&format!("{bits}{ones}11111111"));
            assert_eq!(huffman_decode(&longer), Err(HpackError::BadHuffman), "{text:?} + FF");
            // A zero anywhere in the padding: up to four bits cannot hold a
            // symbol, so the input ends inside one, off the all-ones path;
            // five to seven may spell one (`011111` is `9`).
            let trie = code_trie(&table.codes);
            for zero in 0..pad {
                let mut padding = ones.clone().into_bytes();
                padding[zero] = b'0';
                let padding = String::from_utf8(padding).unwrap();
                let input = octets(&format!("{bits}{padding}"));
                let got = huffman_decode(&input);
                assert_eq!(got, huffman_decode_bitwise(&trie, &input), "{text:?} {padding}");
                assert!(pad > 4 || got == Err(HpackError::BadHuffman), "{text:?} {padding}");
            }
        }
        // `10` ends one step and `1111` is all of the next: the last step
        // saw only ones, but the state it ends in is inside `1011110`.
        assert_eq!(bits_of("00").len() % 4, 2);
        let input = octets(&format!("{}101111", bits_of("00")));
        assert_eq!(huffman_decode(&input), Err(HpackError::BadHuffman));
        // The two holes of the code space — 17 ones, and 16 ones then 011 —
        // behind 0, 5, 6 and 7 bits of text, so that the bit that leaves the
        // code is each of a step's four. The ones that fill the last octet
        // would be valid padding from the root, where a decoder that lost
        // its place would be.
        for hole in [format!("{}1", "1".repeat(16)), format!("{}011", "1".repeat(16))] {
            for text in ["", "0", " ", ":"] {
                let input = octets(&format!("{}{hole}", bits_of(text)));
                assert_eq!(huffman_decode(&input), Err(HpackError::BadHuffman), "{text:?} {hole}");
            }
        }
    }

    #[test]
    fn integers_round_trip_across_prefix_sizes() {
        for prefix in 1..=8u8 {
            for value in [0usize, 1, 9, 30, 31, 127, 128, 1337, 65_535, 1 << 20] {
                let mut buf = Vec::new();
                encode_int(&mut buf, 0, prefix, value);
                let mut pos = 0;
                assert_eq!(decode_int(&buf, &mut pos, prefix).unwrap(), value);
                assert_eq!(pos, buf.len());
            }
        }
    }

    #[test]
    fn rfc7541_c1_examples() {
        // C.1.1: 10 with a 5-bit prefix is one byte.
        let mut buf = Vec::new();
        encode_int(&mut buf, 0, 5, 10);
        assert_eq!(buf, [0b01010]);
        // C.1.2: 1337 with a 5-bit prefix.
        buf.clear();
        encode_int(&mut buf, 0, 5, 1337);
        assert_eq!(buf, [0b11111, 0b10011010, 0b00001010]);
    }

    #[test]
    fn static_indexed_headers_cost_one_byte() {
        let mut enc = Encoder::new();
        let block = enc.encode(&[h(":method", "GET"), h(":status", "200")]);
        assert_eq!(block, vec![0x82, 0x88]);
        let mut dec = Decoder::new();
        assert_eq!(dec.decode(&block).unwrap(), vec![h(":method", "GET"), h(":status", "200")]);
    }

    #[test]
    fn repeated_headers_shrink_to_index_bytes() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let headers = vec![
            h(":method", "POST"),
            h(":scheme", "https"),
            h(":authority", "dns.example.net"),
            h(":path", "/dns-query"),
            h("content-type", "application/dns-message"),
            h("content-length", "33"),
        ];
        let first = enc.encode(&headers);
        assert_eq!(dec.decode(&first).unwrap(), headers);
        let second = enc.encode(&headers);
        assert_eq!(dec.decode(&second).unwrap(), headers);
        // Every repeated header is a 1-byte index into the dynamic table.
        assert_eq!(second.len(), headers.len());
        assert!(first.len() > 4 * second.len(), "{} vs {}", first.len(), second.len());
    }

    #[test]
    fn eviction_keeps_encoder_and_decoder_in_lockstep() {
        // A table that only fits two ~42-octet entries.
        let mut enc = Encoder::with_capacity(100);
        let mut dec = Decoder::with_capacity(100);
        for round in 0..20 {
            let headers = vec![h("x-round", &format!("value-{round:04}"))];
            let block = enc.encode(&headers);
            assert_eq!(dec.decode(&block).unwrap(), headers);
            assert_eq!(enc.table_size(), dec.table_size());
            assert!(enc.table_size() <= 100);
        }
        assert_eq!(enc.table_entries(), 2);
    }

    #[test]
    fn oversized_entry_empties_the_table() {
        let mut enc = Encoder::with_capacity(64);
        let mut dec = Decoder::with_capacity(64);
        enc.encode(&[h("a", "b")]);
        dec.decode(&enc.encode(&[h("c", "d")])).unwrap();
        let big = "v".repeat(200);
        let block = enc.encode(&[h("huge-header-name", &big)]);
        assert_eq!(dec.decode(&block).unwrap(), vec![h("huge-header-name", &big)]);
        assert_eq!(enc.table_size(), 0);
        assert_eq!(dec.table_size(), 0);
    }

    #[test]
    fn size_update_is_emitted_and_applied() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        dec.decode(&enc.encode(&[h("x-a", "1"), h("x-b", "2")])).unwrap();
        assert!(dec.table_size() > 0);
        enc.set_capacity(0);
        let block = enc.encode(&[h("x-c", "3")]);
        assert_eq!(block[0] & 0xE0, 0x20, "block must start with a size update");
        dec.decode(&block).unwrap();
        assert_eq!(enc.table_size(), 0);
        assert_eq!(dec.table_size(), 0);
    }

    #[test]
    fn size_update_above_the_maximum_is_rejected() {
        let mut dec = Decoder::with_capacity(256);
        let mut block = Vec::new();
        encode_int(&mut block, 0x20, 5, 4096);
        assert_eq!(dec.decode(&block), Err(HpackError::TableSizeExceeded));
    }

    #[test]
    fn bad_index_and_truncation_are_reported() {
        let mut dec = Decoder::new();
        assert_eq!(dec.decode(&[0x80]), Err(HpackError::BadIndex(0)));
        assert_eq!(dec.decode(&[0xFF]), Err(HpackError::Truncated));
        assert!(matches!(dec.decode(&[0xBF, 0x20]), Err(HpackError::BadIndex(_))));
        // Literal whose value string runs past the block.
        assert_eq!(dec.decode(&[0x41, 0x02, b'h']), Err(HpackError::Truncated));
    }
}
