//! Low-level bounds-checked cursor primitives shared by the codecs.

use crate::error::{DnsError, Result};

/// A bounds-checked reader over a DNS message buffer.
///
/// Unlike a plain slice cursor, the reader keeps the *whole* message
/// available so that compression pointers can jump backwards.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current offset from the start of the message.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Repositions the reader; used when following compression pointers.
    pub fn seek(&mut self, pos: usize) -> Result<()> {
        if pos > self.buf.len() {
            return Err(DnsError::BadPointer(pos));
        }
        self.pos = pos;
        Ok(())
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed the entire buffer.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The full underlying message buffer.
    pub fn message(&self) -> &'a [u8] {
        self.buf
    }

    /// Reads one octet.
    pub fn u8(&mut self, context: &'static str) -> Result<u8> {
        if self.pos >= self.buf.len() {
            return Err(DnsError::Truncated { context });
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16> {
        let hi = self.u8(context)?;
        let lo = self.u8(context)?;
        Ok(u16::from_be_bytes([hi, lo]))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32> {
        let a = self.u8(context)?;
        let b = self.u8(context)?;
        let c = self.u8(context)?;
        let d = self.u8(context)?;
        Ok(u32::from_be_bytes([a, b, c, d]))
    }

    /// Reads exactly `n` bytes.
    pub fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(DnsError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// An append-only writer that tracks name-compression targets.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Message offsets at which `Name::encode` began a label sequence:
    /// the compression targets, in the order they were written.
    name_offsets: Vec<u16>,
    /// When `false`, names are written without compression pointers.
    compress: bool,
}

impl Writer {
    /// Creates a writer with name compression enabled (the normal mode).
    pub fn new() -> Self {
        Writer { buf: Vec::with_capacity(512), name_offsets: Vec::new(), compress: true }
    }

    /// Creates a writer that never emits compression pointers.
    pub fn uncompressed() -> Self {
        Writer { compress: false, ..Writer::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the finished buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one octet.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrites the big-endian `u16` at `offset` (used for RDLENGTH
    /// back-patching after the RDATA is known).
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        self.buf[offset..offset + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Looks up a previously written name equal to `suffix`, a name (or a
    /// name's tail from a label boundary on) in uncompressed wire form.
    ///
    /// Returns the message offset of that name if it is addressable by a
    /// 14-bit compression pointer. A 14-bit pointer encodes offsets
    /// `0..=0x3FFF`, so `0x3FFF` itself is a valid target.
    ///
    /// Registered offsets are tried in registration order and the first
    /// match wins. Which offset a pointer names is part of the encoding —
    /// the figures are computed over these bytes and every report digest
    /// pins them — so a faster index must still return the
    /// earliest-registered match.
    pub fn find_suffix(&self, suffix: &[u8]) -> Option<usize> {
        self.name_offsets.iter().map(|&off| usize::from(off)).find(|&off| self.name_at(off, suffix))
    }

    /// Whether the name written at `pos` — its labels, then whatever its
    /// own compression pointers lead to — spells exactly `suffix`.
    fn name_at(&self, mut pos: usize, mut suffix: &[u8]) -> bool {
        loop {
            // Running off the end is the name `Name::encode` is still in
            // the middle of writing; it equals nothing yet.
            let Some(&len) = self.buf.get(pos) else { return false };
            if len & 0xC0 == 0xC0 {
                let Some(&lo) = self.buf.get(pos + 1) else { return false };
                let target = usize::from(len & 0x3F) << 8 | usize::from(lo);
                // `Name::encode` only ever points backwards; anything else
                // was not written by it and must not be able to loop.
                if target >= pos {
                    return false;
                }
                pos = target;
                continue;
            }
            let end = 1 + usize::from(len);
            match (self.buf.get(pos..pos + end), suffix.get(..end)) {
                (Some(written), Some(wanted)) if written == wanted => {}
                _ => return false,
            }
            if len == 0 {
                return true;
            }
            pos += end;
            suffix = &suffix[end..];
        }
    }

    /// Registers `offset`, where a label sequence is about to be written,
    /// as a compression target. Later registrations never shadow earlier
    /// ones (see [`Writer::find_suffix`]). Offsets past `0x3FFF` are
    /// unreachable by a 14-bit pointer and are silently discarded, as is
    /// everything on an uncompressed writer.
    pub fn register_suffix(&mut self, offset: usize) {
        if self.compress && offset < 0x4000 {
            self.name_offsets.push(offset as u16);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_scalars_round_trip() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEADBEEF);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("t").unwrap(), 0xAB);
        assert_eq!(r.u16("t").unwrap(), 0xBEEF);
        assert_eq!(r.u32("t").unwrap(), 0xDEADBEEF);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_truncation_is_an_error_not_a_panic() {
        let buf = [0x01u8];
        let mut r = Reader::new(&buf);
        assert!(r.u16("short").is_err());
        let mut r2 = Reader::new(&buf);
        assert!(r2.bytes(2, "short").is_err());
    }

    #[test]
    fn seek_past_end_is_rejected() {
        let buf = [0u8; 4];
        let mut r = Reader::new(&buf);
        assert!(r.seek(5).is_err());
        assert!(r.seek(4).is_ok());
    }

    #[test]
    fn patch_u16_overwrites_in_place() {
        let mut w = Writer::new();
        w.u16(0);
        w.u8(7);
        w.patch_u16(0, 0x0102);
        assert_eq!(w.finish(), vec![1, 2, 7]);
    }

    const EXAMPLE_COM: &[u8] = b"\x07example\x03com\0";

    /// Appends `filler` bytes and then `example.com.`, registering only the
    /// name's first label; returns the offset it landed on.
    fn write_example_com_after(w: &mut Writer, filler: usize) -> usize {
        w.bytes(&vec![0xEE; filler]);
        let at = w.len();
        w.register_suffix(at);
        w.bytes(EXAMPLE_COM);
        at
    }

    #[test]
    fn suffix_registry_finds_exact_suffix_only() {
        let mut w = Writer::new();
        assert_eq!(write_example_com_after(&mut w, 12), 12);
        assert_eq!(w.find_suffix(EXAMPLE_COM), Some(12));
        // `com.` is in the buffer at 20, but nothing registered it.
        assert_eq!(w.find_suffix(b"\x03com\0"), None);
        assert_eq!(w.find_suffix(b"\x07example\0"), None);
        assert_eq!(w.find_suffix(b"\x07example\x03com\x03net\0"), None);
        // A second copy, registered later, never shadows the first.
        assert_eq!(write_example_com_after(&mut w, 3), 28);
        assert_eq!(w.find_suffix(EXAMPLE_COM), Some(12));
    }

    #[test]
    fn suffix_match_follows_the_written_names_own_pointer() {
        // `www` + pointer to 12 at offset 25 spells www.example.com.
        let mut w = Writer::new();
        write_example_com_after(&mut w, 12);
        w.register_suffix(25);
        w.bytes(b"\x03www\xC0\x0C");
        assert_eq!(w.find_suffix(b"\x03www\x07example\x03com\0"), Some(25));
        assert_eq!(w.find_suffix(b"\x03www\x07example\0"), None);
        // A pointer that does not point backwards matches nothing, and the
        // walk over it ends.
        w.register_suffix(31);
        w.bytes(b"\xC0\x1F");
        assert_eq!(w.find_suffix(b"\x03net\0"), None);
    }

    #[test]
    fn suffix_at_exactly_0x3fff_is_a_valid_pointer_target() {
        // A 14-bit pointer addresses offsets 0..=0x3FFF; the boundary
        // offset itself must be registered and found (regression: the guard
        // used to be `< 0x3FFF`, rejecting the last addressable offset).
        let mut w = Writer::new();
        write_example_com_after(&mut w, 0x3FFF);
        assert_eq!(w.find_suffix(EXAMPLE_COM), Some(0x3FFF));
        // One past the boundary is genuinely unreachable.
        let mut w2 = Writer::new();
        write_example_com_after(&mut w2, 0x4000);
        assert_eq!(w2.find_suffix(EXAMPLE_COM), None);
    }

    #[test]
    fn uncompressed_writer_never_offers_suffixes() {
        let mut w = Writer::uncompressed();
        write_example_com_after(&mut w, 12);
        assert_eq!(w.find_suffix(EXAMPLE_COM), None);
    }
}
