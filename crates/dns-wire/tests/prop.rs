//! Property-based tests for the DNS codecs.
//!
//! The workspace builds offline, so instead of `proptest` these use a small
//! in-file generator: a seeded SplitMix64 PRNG drives random message
//! construction, and every property is checked over many generated cases.
//! Failures print the offending seed so a case can be replayed exactly.

use dohmark_dns_wire::{
    jsontext, DnsError, Message, Name, Rcode, Rdata, Reader, Record, RecordType, SoaRdata, Writer,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const CASES: u64 = 256;

/// Deterministic SplitMix64 generator; tiny, unbiased enough for tests.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    /// A uniformly drawn element of the non-empty `from`.
    fn pick<'a, T>(&mut self, from: &'a [T]) -> &'a T {
        &from[self.below(from.len() as u64) as usize]
    }

    /// A label matching `[a-z0-9_][a-z0-9_-]{0,18}`.
    fn label(&mut self) -> String {
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
        let len = 1 + self.below(19) as usize;
        let mut s = String::with_capacity(len);
        s.push(FIRST[self.below(FIRST.len() as u64) as usize] as char);
        for _ in 1..len {
            s.push(REST[self.below(REST.len() as u64) as usize] as char);
        }
        s
    }

    /// A domain name of 1..=5 labels.
    fn name(&mut self) -> Name {
        let labels: Vec<String> = (0..1 + self.below(5)).map(|_| self.label()).collect();
        Name::from_labels(labels).expect("generated labels are valid")
    }

    /// A printable-ASCII string of up to `max` characters.
    fn printable(&mut self, max: u64) -> String {
        let len = self.below(max + 1);
        (0..len).map(|_| (0x20 + self.below(0x5F)) as u8 as char).collect()
    }

    fn rdata(&mut self) -> Rdata {
        match self.below(9) {
            0 => Rdata::A(u32::to_be_bytes(self.next() as u32).into()),
            1 => Rdata::Aaaa(
                u128::to_be_bytes((self.next() as u128) << 64 | self.next() as u128).into(),
            ),
            2 => Rdata::Cname(self.name()),
            3 => self.opaque(2),
            4 => Rdata::Mx { preference: self.next() as u16, exchange: self.name() },
            5 => {
                let strings = (0..self.below(3)).map(|_| self.printable(40)).collect();
                Rdata::Txt(strings)
            }
            6 => Rdata::Soa(SoaRdata {
                mname: self.name(),
                rname: self.name(),
                serial: self.next() as u32,
                refresh: self.next() as u32,
                retry: self.next() as u32,
                expire: self.next() as u32,
                minimum: self.next() as u32,
            }),
            7 => self.opaque(33),
            8 => self.opaque(41),
            _ => unreachable!(),
        }
    }

    /// RDATA of a type the codec does not model (NS, SRV, OPT): random
    /// bytes, which it must carry verbatim.
    fn opaque(&mut self, rtype: u16) -> Rdata {
        Rdata::Unknown { rtype, data: (0..self.below(24)).map(|_| self.next() as u8).collect() }
    }

    fn record(&mut self) -> Record {
        let name = self.name();
        let ttl = self.next() as u32;
        let rdata = self.rdata();
        Record::new(name, ttl, rdata)
    }

    fn records(&mut self, max: u64) -> Vec<Record> {
        (0..self.below(max + 1)).map(|_| self.record()).collect()
    }

    fn message(&mut self) -> Message {
        let id = self.next() as u16;
        let qname = self.name();
        let query = Message::query(id, &qname, RecordType::A);
        let mut m = Message::response(&query, Rcode::NoError, self.records(3));
        m.authorities = self.records(1);
        m.additionals = self.records(1);
        m
    }

    /// A response whose records mostly hang off the question name, so its
    /// encoding is full of compression pointers — into the question, into
    /// earlier owners and into one another.
    fn compressible_message(&mut self) -> Message {
        let mut m = self.message();
        let qname = m.questions[0].name.clone();
        let mut owner = qname.clone();
        for rec in m.answers.iter_mut().chain(&mut m.authorities).chain(&mut m.additionals) {
            match self.below(4) {
                0 => {}
                1 => rec.name = qname.clone(),
                2 => rec.name = owner.parent().unwrap_or_else(Name::root),
                _ => {
                    owner = owner.child(&self.label()).unwrap_or(owner);
                    rec.name = owner.clone();
                }
            }
        }
        m
    }

    /// Labels for a name drawn from eight short labels — few enough that
    /// the names of one sequence share suffixes all the time — spelled in
    /// random case. `x0`, `0` and `-` end in bytes that are also legal
    /// length octets.
    fn colliding_labels(&mut self) -> Vec<String> {
        const ALPHABET: [&str; 8] = ["a", "b", "ab", "com", "x0", "0", "-", "a-b"];
        (0..self.below(5))
            .map(|_| {
                self.pick(&ALPHABET)
                    .chars()
                    .map(|c| if self.chance(3) { c.to_ascii_uppercase() } else { c })
                    .collect()
            })
            .collect()
    }

    /// One seeded corruption of the valid encoding `valid`: truncate it,
    /// flip one bit, overwrite a span with a slice of `donor` (another
    /// valid encoding, so the splice is plausible input), or append
    /// garbage.
    fn mutate(&mut self, valid: &[u8], donor: &[u8]) -> Vec<u8> {
        let mut out = valid.to_vec();
        match self.below(4) {
            0 => out.truncate(self.below(out.len() as u64 + 1) as usize),
            1 if !out.is_empty() => {
                let at = self.below(out.len() as u64) as usize;
                out[at] ^= 1 << self.below(8);
            }
            2 if !donor.is_empty() => {
                let from = self.below(donor.len() as u64) as usize;
                let len = 1 + self.below((donor.len() - from) as u64) as usize;
                let at = self.below(out.len() as u64 + 1) as usize;
                let end = (at + len).min(out.len());
                out.splice(at..end, donor[from..from + len].iter().copied());
            }
            _ => out.extend((0..self.below(33)).map(|_| self.next() as u8)),
        }
        out
    }
}

/// Runs `check` over [`CASES`] seeded cases, reporting the failing seed.
fn for_all_cases(check: impl Fn(&mut Gen)) {
    for_cases(CASES, check);
}

/// Runs `check` over `cases` seeded cases, reporting the failing seed.
fn for_cases(cases: u64, check: impl Fn(&mut Gen)) {
    for seed in 0..cases {
        let mut g = Gen::new(seed);
        // A panic inside `check` aborts the test; print the seed first so
        // the case can be replayed.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&mut g)));
        if let Err(payload) = result {
            eprintln!("property failed for generator seed {seed}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Encoding then decoding any name yields the same name.
#[test]
fn name_round_trip() {
    for_all_cases(|g| {
        let n = g.name();
        let mut w = Writer::new();
        n.encode(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap(), n);
    });
}

/// Message encode/decode is the identity, header included.
#[test]
fn message_round_trip() {
    for_all_cases(|g| {
        let m = g.message();
        assert_eq!(Message::decode(&m.encode()), Ok(m));
    });
}

/// Compression is always a pure size optimisation: the compressed and
/// uncompressed encodings both decode to the message encoded, and
/// compression never enlarges a message.
#[test]
fn compression_is_transparent_and_monotone() {
    for_all_cases(|g| {
        let m = g.message();
        let compressed = m.encode();
        let plain = m.encode_uncompressed();
        assert!(compressed.len() <= plain.len());
        assert_eq!(Message::decode(&compressed), Ok(m.clone()));
        assert_eq!(Message::decode(&plain), Ok(m));
    });
}

/// The decoder never panics on arbitrary bytes; it either parses or errors.
#[test]
fn decoder_total_on_arbitrary_input() {
    for_all_cases(|g| {
        let len = g.below(256) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        let _ = Message::decode(&bytes);
    });
}

/// Round-trips survive prior content pushing name-suffix offsets past the
/// 14-bit compression-pointer boundary (`0x3FFF`): suffixes first seen past
/// it are unreachable by a pointer and must be written in full, while
/// suffixes registered below it stay compressible, and both encodings must
/// decode to the same message.
#[test]
fn round_trip_across_the_compression_pointer_boundary() {
    for seed in 0..24 {
        let mut g = Gen::new(seed + 0xB0DA);
        let mut m = g.message();
        // Pad with TXT records until the encoding safely passes 0x4000
        // bytes (estimate without compression; random names rarely share
        // suffixes, so the margin of 0x800 absorbs what compression saves).
        let mut estimate = 0usize;
        while estimate <= 0x4800 {
            let name = g.name();
            let strings: Vec<String> = (0..3).map(|_| g.printable(200)).collect();
            estimate += name.wire_len() + 10 + strings.iter().map(|s| 1 + s.len()).sum::<usize>();
            m.answers.push(Record::new(name, 60, Rdata::Txt(strings)));
        }
        // A shared name whose first occurrence lands past the boundary:
        // its suffixes must not be offered as (unencodable) pointer targets.
        let late = g.name();
        let ns = Rdata::Unknown { rtype: 2, data: g.name().as_wire().to_vec() };
        m.answers.push(Record::new(late.clone(), 60, ns));
        m.answers.push(Record::new(late.clone(), 60, Rdata::Cname(late.clone())));
        let compressed = m.encode();
        assert!(compressed.len() > 0x4000, "seed {seed}: only {} bytes", compressed.len());
        assert_eq!(Message::decode(&compressed).as_ref(), Ok(&m), "seed {seed}");
        let plain = m.encode_uncompressed();
        assert!(compressed.len() <= plain.len());
        assert_eq!(Message::decode(&plain), Ok(m), "seed {seed}");
    }
}

/// Appends a string literal of up to 11 characters, among them the ones
/// the writer must escape and two that take more than one byte.
fn json_string(g: &mut Gen, out: &mut String) {
    const CHARS: [char; 10] = ['a', 'Z', '7', ' ', '_', '"', '\\', '\n', 'é', '→'];
    let s: String = (0..g.below(12)).map(|_| *g.pick(&CHARS)).collect();
    jsontext::write_escaped(out, &s);
}

/// Appends one JSON value of the kinds a figure report holds, with the
/// report writer's `", "` and `": "` separators: objects and arrays nested
/// at most four deep, escaped strings, integers up to 2^64 − 1, two-decimal
/// fixed-point numbers of either sign, booleans and `null`.
fn json_doc(g: &mut Gen, depth: u32, out: &mut String) {
    // The document itself is a container; containers stop four levels down.
    let kind = if depth == 0 { 6 + g.below(2) } else { g.below(if depth < 4 { 8 } else { 6 }) };
    match kind {
        0 => out.push_str("null"),
        1 => out.push_str(if g.chance(2) { "true" } else { "false" }),
        2 | 3 => out.push_str(&(g.next() >> g.below(64)).to_string()),
        4 => out.push_str(&format!("{:.2}", (g.below(20_000_000) as f64 - 1e7) / 100.0)),
        5 => json_string(g, out),
        container => {
            let object = container == 7;
            out.push(if object { '{' } else { '[' });
            for i in 0..g.below(5) {
                if i > 0 {
                    out.push_str(", ");
                }
                if object {
                    json_string(g, out);
                    out.push_str(": ");
                }
                json_doc(g, depth + 1, out);
            }
            out.push(if object { '}' } else { ']' });
        }
    }
}

/// The JSON text parser accepts every report-shaped document and never
/// panics on a corrupted one — truncated, bit-flipped, spliced with another
/// document or followed by garbage — and its recursion is bounded by its
/// own depth limit, not by the stack it runs on.
#[test]
fn jsontext_parser_is_total_on_mutated_documents() {
    for_cases(4096, |g| {
        let (mut doc, mut donor) = (String::new(), String::new());
        json_doc(g, 0, &mut doc);
        json_doc(g, 0, &mut donor);
        assert!(jsontext::parse(&doc).is_ok(), "{doc}");
        let mutated = g.mutate(doc.as_bytes(), donor.as_bytes());
        let _ = jsontext::parse(&String::from_utf8_lossy(&mutated));
    });
    assert!(jsontext::parse(&"[".repeat(200_000)).is_err());
}

/// The compressor as it was when a name was a `Vec<String>`: every written
/// suffix kept as its own label vector beside its offset, matched by
/// vector equality, first registration first. Kept only here, as the
/// reference [`Writer`]'s offset table must agree with byte for byte.
#[derive(Default)]
struct LabelVecWriter {
    buf: Vec<u8>,
    name_offsets: Vec<(Vec<String>, usize)>,
}

impl LabelVecWriter {
    fn find_suffix(&self, labels: &[String]) -> Option<usize> {
        self.name_offsets
            .iter()
            .find(|(suffix, off)| suffix == labels && *off < 0x4000)
            .map(|(_, off)| *off)
    }

    fn register_suffix(&mut self, labels: Vec<String>, offset: usize) {
        if offset < 0x4000 {
            self.name_offsets.push((labels, offset));
        }
    }

    fn encode_name(&mut self, labels: &[String]) {
        for idx in 0..labels.len() {
            let suffix = labels[idx..].to_vec();
            if let Some(off) = self.find_suffix(&suffix) {
                self.buf.extend_from_slice(&(0xC000 | off as u16).to_be_bytes());
                return;
            }
            self.register_suffix(suffix, self.buf.len());
            self.buf.push(labels[idx].len() as u8);
            self.buf.extend_from_slice(labels[idx].as_bytes());
        }
        self.buf.push(0);
    }
}

/// The offset-table compressor emits exactly the bytes the label-vector
/// compressor did, over sequences built to make suffixes collide: a tiny
/// label alphabet, mixed-case spellings, the root, repeats, tails and
/// children of earlier names, and filler that walks the offsets up to and
/// across the last pointer-addressable one.
#[test]
fn compression_matches_the_label_vector_reference() {
    for_cases(4096, |g| {
        let mut real = Writer::new();
        let mut reference = LabelVecWriter::default();
        let mut written: Vec<(usize, Name)> = Vec::new();
        let mut history: Vec<Vec<String>> = Vec::new();
        // One sequence in four is pushed up against `0x3FFF`.
        let mut crossing = g.chance(4);
        for _ in 0..2 + g.below(14) {
            let filler = if crossing && g.chance(3) {
                crossing = false;
                0x3FFF_usize.saturating_sub(real.len() + g.below(24) as usize)
            } else if g.chance(3) {
                g.below(12) as usize
            } else {
                0
            };
            // Arbitrary bytes: no offset is registered inside them, so
            // whatever they spell must never be read as a name.
            let filler: Vec<u8> = (0..filler).map(|_| g.next() as u8).collect();
            real.bytes(&filler);
            reference.buf.extend_from_slice(&filler);

            let labels = match g.below(4) {
                0 if !history.is_empty() => g.pick(&history).clone(),
                1 if !history.is_empty() => {
                    let earlier = g.pick(&history);
                    earlier[g.below(earlier.len() as u64 + 1) as usize..].to_vec()
                }
                2 if !history.is_empty() => {
                    let mut child = g.colliding_labels();
                    child.truncate(1);
                    child.extend(g.pick(&history).iter().cloned());
                    child
                }
                _ => g.colliding_labels(),
            };
            let name = Name::from_labels(&labels).expect("short labels, short names");
            written.push((real.len(), name.clone()));
            name.encode(&mut real);
            let lowered: Vec<String> = labels.iter().map(|l| l.to_ascii_lowercase()).collect();
            reference.encode_name(&lowered);
            history.push(labels);
        }
        let bytes = real.finish();
        assert_eq!(bytes, reference.buf);
        for (at, name) in written {
            let mut r = Reader::new(&bytes);
            r.seek(at).unwrap();
            assert_eq!(Name::decode(&mut r).unwrap(), name, "name written at {at}");
        }
    });
}

fn hash_of(name: &Name) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// Case is folded once, on the way in, by every constructor — so equality,
/// ordering and hashing on the stored bytes are case-insensitive.
#[test]
fn every_way_in_folds_case() {
    let lower = Name::parse("example.com").unwrap();
    let decoded = Name::decode(&mut Reader::new(b"\x07EXAMPLE\x03Com\0")).unwrap();
    let spelled = [
        Name::parse("EXAMPLE.Com").unwrap(),
        Name::from_labels(["ExAmPlE", "COM"]).unwrap(),
        Name::parse("COM").unwrap().child("Example").unwrap(),
        decoded,
    ];
    for name in &spelled {
        assert_eq!(name, &lower);
        assert_eq!(name.cmp(&lower), std::cmp::Ordering::Equal);
        assert_eq!(hash_of(name), hash_of(&lower));
        assert_eq!(name.as_wire(), b"\x07example\x03com\0");
        assert_eq!(name.to_string(), "example.com.");
    }
}

/// `is_subdomain_of` compares from a label boundary, not from wherever the
/// bytes happen to line up: `0` is 0x30, the length octet of a 48-byte
/// label, so the one label `x0aaa…a` *ends with* the whole wire form of
/// the name `aaa…a.` without being under it.
#[test]
fn subdomain_test_respects_label_boundaries() {
    let a48 = "a".repeat(48);
    let parent = Name::parse(&a48).unwrap();
    let lookalike = Name::parse(&format!("x0{a48}")).unwrap();
    assert!(lookalike.as_wire().ends_with(parent.as_wire()));
    assert!(!lookalike.is_subdomain_of(&parent));
    assert!(parent.child("x0").unwrap().is_subdomain_of(&parent));
    assert!(lookalike.is_subdomain_of(&lookalike));
    assert!(lookalike.is_subdomain_of(&Name::root()));
    assert!(!Name::root().is_subdomain_of(&parent));
}

/// Every name a decoded message carries, RDATA included.
fn names_of(m: &Message) -> Vec<&Name> {
    let mut names: Vec<&Name> = m.questions.iter().map(|q| &q.name).collect();
    for rec in m.answers.iter().chain(&m.authorities).chain(&m.additionals) {
        names.push(&rec.name);
        match &rec.rdata {
            Rdata::Cname(n) => names.push(n),
            Rdata::Mx { exchange, .. } => names.push(exchange),
            Rdata::Soa(soa) => names.extend([&soa.mname, &soa.rname]),
            _ => {}
        }
    }
    names
}

/// `Message::decode` never panics on a corrupted *valid* response —
/// truncated, bit-flipped, spliced with another response or followed by
/// garbage: unlike random bytes, these get past the header and into RDATA
/// and compression pointers — and no name it does accept is over-long.
#[test]
fn message_decoder_is_total_on_mutated_responses() {
    for_cases(4096, |g| {
        let valid = g.compressible_message().encode();
        let donor = g.compressible_message().encode();
        let mutated = g.mutate(&valid, &donor);
        if let Ok(m) = Message::decode(&mutated) {
            for name in names_of(&m) {
                assert!(name.wire_len() <= 255, "{name} is {} octets", name.wire_len());
                assert_eq!(name.as_wire().last(), Some(&0));
            }
        }
    });
}

/// A message holding, inside the opaque RDATA of its first record, a chain
/// of `links` one-label names — `a` then a pointer to the link before, the
/// first ending in the root — and a second record whose owner is `owner`
/// (given the offset of the chain's last link).
fn message_with_pointer_chain(links: usize, owner: impl Fn(usize) -> Vec<u8>) -> Vec<u8> {
    let mut msg = vec![0, 1, 0x80, 0, 0, 0, 0, 2, 0, 0, 0, 0]; // response, ANCOUNT 2
    msg.extend_from_slice(&[0, 0, 99, 0, 1, 0, 0, 0, 0]); // root owner, TYPE99, IN, ttl 0
    let rdlength = 3 + 4 * (links - 1);
    msg.extend_from_slice(&(rdlength as u16).to_be_bytes());
    let mut last = msg.len();
    msg.extend_from_slice(&[1, b'a', 0]);
    for _ in 1..links {
        let link = msg.len();
        msg.extend_from_slice(&[1, b'a']);
        msg.extend_from_slice(&(0xC000 | last as u16).to_be_bytes());
        last = link;
    }
    assert!(last < 0x4000, "the chain must stay pointer-addressable");
    msg.extend_from_slice(&owner(last));
    msg.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 0, 0, 4, 192, 0, 2, 1]); // A 192.0.2.1
    msg
}

/// Decoding is bounded in work as well as total: a compressed name may
/// hop backwards as often as the message has bytes, but what it expands to
/// is cut off at 255 octets — also when every label sits behind its own
/// pointer — and pointers that do not go strictly backwards are refused.
#[test]
fn pointer_chains_are_bounded_by_the_name_length_limit() {
    let pointer_to = |at: usize| (0xC000 | at as u16).to_be_bytes().to_vec();
    // 127 two-octet labels and the root are exactly 255 octets: the longest
    // legal name, every label of it reached through a pointer.
    let longest = Message::decode(&message_with_pointer_chain(127, pointer_to)).unwrap();
    assert_eq!(longest.answers[1].name.wire_len(), 255);
    assert_eq!(longest.answers[1].name.labels().count(), 127);
    // One more link is one label too many…
    let over = Message::decode(&message_with_pointer_chain(128, pointer_to));
    assert_eq!(over, Err(DnsError::NameTooLong(257)));
    // …and so is a chain filling all 16 KiB a pointer can address: an
    // error after 128 hops, not a 4 000-label name and not a hang.
    let full = message_with_pointer_chain(4090, pointer_to);
    assert!(full.len() > 0x4000);
    assert_eq!(Message::decode(&full), Err(DnsError::NameTooLong(257)));

    // The owner sits right after a two-link chain, 4 octets past the last
    // link: header 12, first record up to its RDATA 11, links 3 + 4. A
    // pointer to itself and a pointer past itself are both refused.
    let owner_at = 12 + 11 + 3 + 4;
    let to_itself = message_with_pointer_chain(2, |last| pointer_to(last + 4));
    assert_eq!(Message::decode(&to_itself), Err(DnsError::BadPointer(owner_at)));
    let forward = message_with_pointer_chain(2, |last| pointer_to(last + 4 + 6));
    assert_eq!(Message::decode(&forward), Err(DnsError::BadPointer(owner_at + 6)));
}
