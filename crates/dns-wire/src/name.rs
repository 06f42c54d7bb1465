//! Domain names: parsing, wire encoding with RFC 1035 compression, decoding.

use crate::error::{DnsError, Result};
use crate::wire::{Reader, Writer};
use std::fmt;

/// Maximum length of a single label, per RFC 1035 §2.3.4.
pub(crate) const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire, per RFC 1035 §2.3.4.
pub(crate) const MAX_NAME_LEN: usize = 255;

/// Each octet a label may hold — an ASCII letter or digit, `-` or `_` —
/// mapped to its lower case, and every other octet to 0 (never a label
/// octet itself): one lookup checks an octet and lower-cases it.
const LABEL_OCTETS: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut octet = 0;
    while octet < table.len() {
        let b = octet as u8;
        if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' {
            table[octet] = b.to_ascii_lowercase();
        }
        octet += 1;
    }
    table
};

/// Writes `label` into `out` (of its length) through [`LABEL_OCTETS`],
/// validated and lower-cased in one pass; the first octet a label may not
/// hold is the error.
fn lower_label(label: &[u8], out: &mut [u8]) -> Result<()> {
    for (slot, &b) in out.iter_mut().zip(label) {
        *slot = LABEL_OCTETS[usize::from(b)];
        if *slot == 0 {
            return Err(DnsError::InvalidLabel(b));
        }
    }
    Ok(())
}

/// A fully-qualified domain name.
///
/// Stored as its uncompressed wire form in one buffer: length-prefixed
/// labels, lower-cased once on the way in, terminated by the root octet,
/// at most 255 octets (RFC 1035 §2.3.4). The root name is `[0]`. Every
/// label octet that comes in — parsed, built or decoded — goes through one
/// 256-entry table, `LABEL_OCTETS`, which checks it and lower-cases it in
/// the same lookup. Comparison and
/// hashing are slice operations on that buffer and therefore
/// case-insensitive, as RFC 1035 §2.3.3 requires. `Ord` is the byte order
/// of the wire form — a total order consistent with `Eq`, *not* RFC 4034
/// canonical order: it compares the leftmost label's length first, where
/// canonical order compares labels from the right.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name {
    wire: Vec<u8>,
}

// One buffer and nothing beside it: a second field here is a second
// representation.
const _: () = assert!(std::mem::size_of::<Name>() <= std::mem::size_of::<Vec<u8>>());

impl Name {
    /// The DNS root (`.`).
    pub fn root() -> Self {
        Name { wire: vec![0] }
    }

    /// Parses a presentation-format name such as `"www.example.com."`.
    ///
    /// A trailing dot is optional. Labels are validated for length and
    /// restricted to LDH (letters, digits, hyphen) plus underscore, which
    /// appears in real query traffic (e.g. `_dmarc`, service records).
    pub fn parse(s: &str) -> Result<Self> {
        if s == "." || s.is_empty() {
            return Ok(Name::root());
        }
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        // Every dot becomes a length octet; one more leads, the root ends.
        let mut wire = Vec::with_capacity((trimmed.len() + 2).min(MAX_NAME_LEN));
        for label in trimmed.split('.') {
            Self::push_label(&mut wire, label.as_bytes())?;
        }
        wire.push(0);
        Self::checked(wire)
    }

    /// Builds a name from label strings, validated like [`Name::parse`]'s.
    pub fn from_labels<I, S>(iter: I) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut wire = Vec::new();
        for l in iter {
            Self::push_label(&mut wire, l.as_ref().as_bytes())?;
        }
        wire.push(0);
        Self::checked(wire)
    }

    /// Appends `label` to `wire`: length-prefixed, then each octet
    /// validated and lower-cased through [`LABEL_OCTETS`].
    fn push_label(wire: &mut Vec<u8>, label: &[u8]) -> Result<()> {
        if label.is_empty() {
            return Err(DnsError::InvalidLabel(b'.'));
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(DnsError::LabelTooLong(label.len()));
        }
        wire.push(label.len() as u8);
        let start = wire.len();
        wire.resize(start + label.len(), 0);
        lower_label(label, &mut wire[start..])
    }

    /// Wraps a complete wire form, refusing one over the length limit.
    fn checked(wire: Vec<u8>) -> Result<Name> {
        if wire.len() > MAX_NAME_LEN {
            return Err(DnsError::NameTooLong(wire.len()));
        }
        Ok(Name { wire })
    }

    /// Walks the labels left to right, yielding each one (length octet
    /// included) beside the suffix of the wire form that it begins: the
    /// whole name first, then its parent's, … — never the root octet alone.
    fn walk(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        let mut rest = &self.wire[..];
        std::iter::from_fn(move || {
            let suffix = rest;
            let (label, tail) = suffix.split_at(1 + suffix[0] as usize);
            if tail.is_empty() {
                return None; // `label` is the root octet
            }
            rest = tail;
            Some((label, suffix))
        })
    }

    /// The labels, left-to-right (`www`, `example`, `com`).
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.walk()
            .map(|(label, _)| std::str::from_utf8(&label[1..]).expect("labels are validated ASCII"))
    }

    /// The uncompressed wire form: lower-case length-prefixed labels and
    /// the terminating root octet.
    pub fn as_wire(&self) -> &[u8] {
        &self.wire
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.wire.len() == 1
    }

    /// Creates a child name `label.self`.
    pub fn child(&self, label: &str) -> Result<Name> {
        let mut wire = Vec::with_capacity(1 + label.len() + self.wire.len());
        Self::push_label(&mut wire, label.as_bytes())?;
        wire.extend_from_slice(&self.wire);
        Self::checked(wire)
    }

    /// The parent name (strips the leftmost label); `None` for the root.
    pub fn parent(&self) -> Option<Name> {
        self.walk().next().map(|(label, suffix)| Name { wire: suffix[label.len()..].to_vec() })
    }

    /// Whether `self` equals `other` or is a subdomain of it.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        // Only a suffix that begins at a label counts. A bytewise
        // `ends_with` is wrong: `-` and `0`–`9` are legal length octets
        // too, so one label's tail can spell another name's whole wire form.
        other.is_root() || self.walk().any(|(_, suffix)| suffix == other.wire)
    }

    /// Uncompressed wire length: each label costs `1 + len`, plus the root
    /// octet.
    pub fn wire_len(&self) -> usize {
        self.wire.len()
    }

    /// Encodes the name, emitting a compression pointer when the writer has
    /// already encoded a matching suffix (RFC 1035 §4.1.4).
    pub fn encode(&self, w: &mut Writer) {
        // Walk suffixes from the full name down; the longest previously
        // written suffix wins.
        for (label, suffix) in self.walk() {
            if let Some(off) = w.find_suffix(suffix) {
                w.u16(0xC000 | off as u16);
                return;
            }
            // Not yet known: write this label and register the suffix that
            // starts here for the rest of the message.
            w.register_suffix(w.len());
            w.bytes(label);
        }
        w.u8(0); // root
    }

    /// Decodes a (possibly compressed) name at the reader's position.
    ///
    /// Pointers must point strictly backwards; loops and forward pointers
    /// are rejected.
    pub fn decode(r: &mut Reader<'_>) -> Result<Name> {
        // Filled on the stack so the name is one exact-size allocation.
        // One label of room past the limit: a label's octets are judged
        // before the name's length is.
        let mut wire = [0u8; MAX_NAME_LEN + MAX_LABEL_LEN];
        // Octets of `wire` filled; the root octet is not among them.
        let mut filled = 0usize;
        // Position to restore once the first pointer is followed.
        let mut resume: Option<usize> = None;
        // Strictly decreasing pointer targets prevent loops.
        let mut min_ptr = r.position();

        loop {
            let len = r.u8("name label length")?;
            match len & 0xC0 {
                0x00 => {
                    if len == 0 {
                        break;
                    }
                    let raw = r.bytes(len as usize, "name label")?;
                    let end = filled + 1 + raw.len();
                    lower_label(raw, &mut wire[filled + 1..end])?;
                    if end + 1 > MAX_NAME_LEN {
                        return Err(DnsError::NameTooLong(end + 1));
                    }
                    wire[filled] = len;
                    filled = end;
                }
                0xC0 => {
                    let lo = r.u8("compression pointer")?;
                    let target = (((len & 0x3F) as usize) << 8) | lo as usize;
                    if target >= min_ptr {
                        return Err(DnsError::BadPointer(target));
                    }
                    if resume.is_none() {
                        resume = Some(r.position());
                    }
                    min_ptr = target;
                    r.seek(target)?;
                }
                other => return Err(DnsError::BadLabelType(other)),
            }
        }

        if let Some(pos) = resume {
            r.seek(pos)?;
        }
        // `wire[filled]` is still the zero it was initialised to: the root.
        Ok(Name { wire: wire[..=filled].to_vec() })
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for label in self.labels() {
            write!(f, "{label}.")?;
        }
        Ok(())
    }
}

/// The presentation form, not the buffer: `Name("www.example.com.")`.
impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name(\"{self}\")")
    }
}

impl std::str::FromStr for Name {
    type Err = DnsError;

    fn from_str(s: &str) -> Result<Self> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_one(name: &Name) -> Vec<u8> {
        let mut w = Writer::new();
        name.encode(&mut w);
        w.finish()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["example.com.", "www.example.com.", "a.b.c.d.e.", "xn--nxasmq6b.example."] {
            let n = Name::parse(s).unwrap();
            assert_eq!(n.to_string(), s);
        }
    }

    #[test]
    fn trailing_dot_is_optional() {
        assert_eq!(Name::parse("example.com").unwrap(), Name::parse("example.com.").unwrap());
    }

    #[test]
    fn names_compare_case_insensitively() {
        assert_eq!(Name::parse("EXAMPLE.Com").unwrap(), Name::parse("example.com").unwrap());
    }

    #[test]
    fn root_name() {
        let root = Name::parse(".").unwrap();
        assert!(root.is_root());
        assert_eq!(root.wire_len(), 1);
        assert_eq!(encode_one(&root), vec![0]);
    }

    #[test]
    fn simple_encoding_matches_rfc_layout() {
        let n = Name::parse("example.com").unwrap();
        let wire = encode_one(&n);
        assert_eq!(wire, [b"\x07example\x03com\x00".as_ref()].concat(),);
        assert_eq!(wire.len(), n.wire_len());
    }

    #[test]
    fn wire_round_trip() {
        let n = Name::parse("www.sub.example.co.uk").unwrap();
        let wire = encode_one(&n);
        let mut r = Reader::new(&wire);
        assert_eq!(Name::decode(&mut r).unwrap(), n);
        assert!(r.is_empty());
    }

    #[test]
    fn second_name_is_compressed_to_a_pointer() {
        let a = Name::parse("example.com").unwrap();
        let b = Name::parse("www.example.com").unwrap();
        let mut w = Writer::new();
        a.encode(&mut w);
        let after_first = w.len();
        b.encode(&mut w);
        let wire = w.finish();
        // Second name = 1+3 ("www") + 2 (pointer) bytes.
        assert_eq!(wire.len(), after_first + 4 + 2);
        let mut r = Reader::new(&wire);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
        assert_eq!(Name::decode(&mut r).unwrap(), b);
    }

    #[test]
    fn identical_name_compresses_to_bare_pointer() {
        let a = Name::parse("example.com").unwrap();
        let mut w = Writer::new();
        a.encode(&mut w);
        let first = w.len();
        a.encode(&mut w);
        let wire = w.finish();
        assert_eq!(wire.len(), first + 2);
        let mut r = Reader::new(&wire);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
    }

    #[test]
    fn name_at_offset_0x3fff_compresses_to_a_pointer() {
        // Place a name so its first label starts at exactly 0x3FFF — the
        // last offset a 14-bit pointer can address — and check a later
        // occurrence compresses to a pointer there and decodes back.
        let name = Name::parse("edge.example.com").unwrap();
        let mut w = Writer::new();
        w.bytes(&vec![0u8; 0x3FFF]);
        name.encode(&mut w);
        let first_len = w.len();
        assert_eq!(first_len, 0x3FFF + name.wire_len());
        name.encode(&mut w);
        let wire = w.finish();
        // Second occurrence is a bare 2-byte pointer: 0xC000 | 0x3FFF.
        assert_eq!(wire.len(), first_len + 2);
        assert_eq!(&wire[first_len..], &[0xFF, 0xFF]);
        let mut r = Reader::new(&wire);
        r.seek(first_len).unwrap();
        assert_eq!(Name::decode(&mut r).unwrap(), name);
    }

    #[test]
    fn name_past_offset_0x3fff_is_not_compressed() {
        // One byte further and the suffix is out of pointer range: the
        // writer must fall back to the full encoding, never a bogus pointer.
        let name = Name::parse("far.example.com").unwrap();
        let mut w = Writer::new();
        w.bytes(&vec![0u8; 0x4000]);
        name.encode(&mut w);
        let first_len = w.len();
        name.encode(&mut w);
        let wire = w.finish();
        assert_eq!(wire.len(), first_len + name.wire_len());
        let mut r = Reader::new(&wire);
        r.seek(first_len).unwrap();
        assert_eq!(Name::decode(&mut r).unwrap(), name);
    }

    #[test]
    fn uncompressed_writer_repeats_full_name() {
        let a = Name::parse("example.com").unwrap();
        let mut w = Writer::uncompressed();
        a.encode(&mut w);
        a.encode(&mut w);
        assert_eq!(w.finish().len(), 2 * a.wire_len());
    }

    #[test]
    fn pointer_loop_is_rejected() {
        // A name that immediately points at itself.
        let wire = [0xC0, 0x00];
        let mut r = Reader::new(&wire);
        assert!(matches!(Name::decode(&mut r), Err(DnsError::BadPointer(_))));
    }

    #[test]
    fn forward_pointer_is_rejected() {
        let wire = [0xC0, 0x04, 0, 0, 0x03, b'c', b'o', b'm', 0x00];
        let mut r = Reader::new(&wire);
        assert!(matches!(Name::decode(&mut r), Err(DnsError::BadPointer(4))));
    }

    #[test]
    fn long_label_is_rejected() {
        let label = "a".repeat(64);
        assert!(matches!(Name::parse(&label), Err(DnsError::LabelTooLong(64))));
    }

    #[test]
    fn overlong_name_is_rejected() {
        let label = "a".repeat(63);
        let name = format!("{label}.{label}.{label}.{label}.x");
        assert!(matches!(Name::parse(&name), Err(DnsError::NameTooLong(_))));
    }

    #[test]
    fn empty_label_is_rejected() {
        assert!(Name::parse("a..b").is_err());
    }

    #[test]
    fn bad_characters_are_rejected() {
        assert!(Name::parse("exa mple.com").is_err());
        assert!(Name::parse("exa\u{e9}mple.com").is_err());
    }

    /// The label rule as it read before the table.
    fn label_octet(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'-' || b == b'_'
    }

    #[test]
    fn label_table_checks_and_lowers_every_octet() {
        for b in 0..=255u8 {
            let lowered = if label_octet(b) { b.to_ascii_lowercase() } else { 0 };
            assert_eq!(LABEL_OCTETS[usize::from(b)], lowered, "{b:#04x}");
        }
    }

    /// Every octet a label may not hold, at every position of a 63-octet
    /// label with a second bad octet behind it, is the error of `decode`,
    /// `parse`, `from_labels` and `child` — also where the label would take
    /// a decoded name past 255 octets, since a label is judged first.
    #[test]
    fn the_first_invalid_octet_is_the_error_wherever_it_sits() {
        let valid = b"Ab-_9".repeat(13)[..MAX_LABEL_LEN].to_vec();
        let full = [&[63u8][..], &valid].concat().repeat(3);
        for b in (0..=255u8).filter(|&b| !label_octet(b)) {
            for at in 0..MAX_LABEL_LEN {
                let mut label = valid.clone();
                label[at] = b;
                if at + 1 < MAX_LABEL_LEN {
                    label[MAX_LABEL_LEN - 1] = b'*';
                }
                let want = Err(DnsError::InvalidLabel(b));
                for prefix in [&[][..], &full[..]] {
                    let wire = [prefix, &[63], &label, &[0]].concat();
                    assert_eq!(Name::decode(&mut Reader::new(&wire)), want, "{b:#04x} at {at}");
                }
                if b.is_ascii() && b != b'.' {
                    let text = std::str::from_utf8(&label).unwrap();
                    assert_eq!(Name::parse(&format!("www.{text}.example")), want, "{b:#04x}");
                    assert_eq!(Name::from_labels(["www", text]), want, "{b:#04x}");
                    assert_eq!(Name::root().child(text), want, "{b:#04x}");
                }
            }
        }
        // The valid label itself: lower-cased, and over the limit on the
        // fourth.
        let wire = [&full[..], &[0]].concat();
        let name = Name::decode(&mut Reader::new(&wire)).unwrap();
        let lowered = String::from_utf8(valid.to_ascii_lowercase()).unwrap();
        assert!(name.labels().all(|label| label == lowered), "{name}");
        let wire = [&full[..], &[63], &valid, &[0]].concat();
        assert_eq!(Name::decode(&mut Reader::new(&wire)), Err(DnsError::NameTooLong(257)));
        // A multi-octet character is refused at its first octet, and a
        // label's length is judged before its octets.
        assert_eq!(Name::parse("exa\u{e9}mple.com"), Err(DnsError::InvalidLabel(0xC3)));
        assert_eq!(Name::parse(&"*".repeat(64)), Err(DnsError::LabelTooLong(64)));
        assert_eq!(Name::root().child(""), Err(DnsError::InvalidLabel(b'.')));
    }

    #[test]
    fn subdomain_relation() {
        let com = Name::parse("com").unwrap();
        let ex = Name::parse("example.com").unwrap();
        let www = Name::parse("www.example.com").unwrap();
        assert!(www.is_subdomain_of(&ex));
        assert!(www.is_subdomain_of(&com));
        assert!(ex.is_subdomain_of(&ex));
        assert!(!ex.is_subdomain_of(&www));
        assert!(www.is_subdomain_of(&Name::root()));
    }

    #[test]
    fn child_and_parent() {
        let ex = Name::parse("example.com").unwrap();
        let www = ex.child("www").unwrap();
        assert_eq!(www.to_string(), "www.example.com.");
        assert_eq!(www.parent().unwrap(), ex);
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn bad_label_type_bits_rejected() {
        // 0x40 and 0x80 top bits are reserved/unsupported.
        let wire = [0x40, 0x00];
        let mut r = Reader::new(&wire);
        assert!(matches!(Name::decode(&mut r), Err(DnsError::BadLabelType(0x40))));
    }

    #[test]
    fn truncated_label_is_an_error() {
        let wire = [0x05, b'a', b'b'];
        let mut r = Reader::new(&wire);
        assert!(matches!(Name::decode(&mut r), Err(DnsError::Truncated { .. })));
    }
}
