//! Resource records and record types (RFC 1035 §3.2, §4.1.3).

use crate::error::{DnsError, Result};
use crate::name::Name;
use crate::rdata::Rdata;
use crate::wire::{Reader, Writer};

/// DNS record types the study's resolutions carry; any other type is
/// [`RecordType::Unknown`], its RDATA kept verbatim (RFC 3597 §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 address.
    A,
    /// Canonical name (alias) — ubiquitous in CDN redirection.
    Cname,
    /// Start of authority.
    Soa,
    /// Mail exchange.
    Mx,
    /// Free-form text.
    Txt,
    /// IPv6 address.
    Aaaa,
    /// Any type not otherwise modelled, by its wire value.
    Unknown(u16),
}

impl RecordType {
    /// The 16-bit wire value.
    pub(crate) fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Unknown(v) => v,
        }
    }

    /// Decodes the 16-bit wire value.
    pub(crate) fn from_u16(v: u16) -> RecordType {
        match v {
            1 => RecordType::A,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            other => RecordType::Unknown(other),
        }
    }
}

/// The Internet class, the only one real resolution traffic carries.
pub(crate) const CLASS_IN: u16 = 1;

/// A resource record: owner name, type, class, TTL and typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Class, the 16-bit wire value (1, `IN`, in practice).
    pub class: u16,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Typed record data. The record type on the wire is derived from this.
    pub rdata: Rdata,
}

impl Record {
    /// Builds an `IN`-class record.
    pub fn new(name: Name, ttl: u32, rdata: Rdata) -> Record {
        Record { name, class: CLASS_IN, ttl, rdata }
    }

    /// The wire record type implied by the RDATA.
    pub(crate) fn rtype(&self) -> RecordType {
        self.rdata.rtype()
    }

    /// Encodes the record, back-patching RDLENGTH.
    pub(crate) fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        w.u16(self.rtype().to_u16());
        w.u16(self.class);
        w.u32(self.ttl);
        let rdlength_at = w.len();
        w.u16(0);
        let start = w.len();
        self.rdata.encode(w);
        let rdlen = w.len() - start;
        w.patch_u16(rdlength_at, rdlen as u16);
    }

    /// Decodes one record.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Record> {
        let name = Name::decode(r)?;
        let rtype = RecordType::from_u16(r.u16("record type")?);
        let class = r.u16("record class")?;
        let ttl = r.u32("record ttl")?;
        let rdlength = r.u16("rdlength")? as usize;
        if r.remaining() < rdlength {
            return Err(DnsError::Truncated { context: "rdata" });
        }
        let start = r.position();
        let rdata = Rdata::decode(rtype, r, rdlength)?;
        let consumed = r.position() - start;
        if consumed != rdlength {
            return Err(DnsError::RdataLength { expected: rdlength, actual: consumed });
        }
        Ok(Record { name, class, ttl, rdata })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn record_type_round_trip() {
        for t in [
            RecordType::A,
            RecordType::Cname,
            RecordType::Soa,
            RecordType::Mx,
            RecordType::Txt,
            RecordType::Aaaa,
            RecordType::Unknown(2),
            RecordType::Unknown(41),
            RecordType::Unknown(999),
        ] {
            assert_eq!(RecordType::from_u16(t.to_u16()), t);
        }
    }

    #[test]
    fn a_record_encodes_with_correct_rdlength() {
        let rec = Record::new(
            Name::parse("example.com").unwrap(),
            300,
            Rdata::A(Ipv4Addr::new(93, 184, 216, 34)),
        );
        let mut w = Writer::new();
        rec.encode(&mut w);
        let wire = w.finish();
        // name(13) + type(2) + class(2) + ttl(4) + rdlength(2) + rdata(4)
        assert_eq!(wire.len(), 13 + 2 + 2 + 4 + 2 + 4);
        // RDLENGTH is the penultimate u16 before the 4 address bytes.
        assert_eq!(&wire[wire.len() - 6..wire.len() - 4], &[0, 4]);
        let back = Record::decode(&mut Reader::new(&wire)).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn rdata_shorter_than_rdlength_is_rejected() {
        // Hand-craft: name "a." type A class IN ttl 0 rdlength 4 but only 2 bytes.
        let wire = [
            0x01, b'a', 0x00, // name
            0x00, 0x01, // type A
            0x00, 0x01, // class IN
            0, 0, 0, 0, // ttl
            0x00, 0x04, // rdlength 4
            0x01, 0x02, // truncated rdata
        ];
        assert!(Record::decode(&mut Reader::new(&wire)).is_err());
    }
}
