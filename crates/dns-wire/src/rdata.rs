//! Typed RDATA for the record types exercised by the study.

use crate::error::{DnsError, Result};
use crate::name::Name;
use crate::record::RecordType;
use crate::wire::{Reader, Writer};
use std::net::{Ipv4Addr, Ipv6Addr};

/// SOA record fields (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoaRdata {
    /// Primary name server.
    pub mname: Name,
    /// Responsible mailbox.
    pub rname: Name,
    /// Zone serial number.
    pub serial: u32,
    /// Refresh interval (s).
    pub refresh: u32,
    /// Retry interval (s).
    pub retry: u32,
    /// Expire limit (s).
    pub expire: u32,
    /// Negative-caching TTL (s).
    pub minimum: u32,
}

/// Typed record data for the types the study's resolutions carry. RDATA of
/// any other type is [`Rdata::Unknown`]: opaque bytes, re-encoded verbatim
/// (RFC 3597 §5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rdata {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Alias target.
    Cname(Name),
    /// Mail exchange: preference and host.
    Mx {
        /// Preference (lower preferred).
        preference: u16,
        /// Exchange host.
        exchange: Name,
    },
    /// Text strings, each at most 255 bytes.
    Txt(Vec<String>),
    /// Start of authority.
    Soa(SoaRdata),
    /// Unrecognised record data kept verbatim.
    Unknown {
        /// The wire record type.
        rtype: u16,
        /// Raw RDATA bytes.
        data: Vec<u8>,
    },
}

impl Rdata {
    /// The wire record type this RDATA belongs to.
    pub(crate) fn rtype(&self) -> RecordType {
        match self {
            Rdata::A(_) => RecordType::A,
            Rdata::Aaaa(_) => RecordType::Aaaa,
            Rdata::Cname(_) => RecordType::Cname,
            Rdata::Mx { .. } => RecordType::Mx,
            Rdata::Txt(_) => RecordType::Txt,
            Rdata::Soa(_) => RecordType::Soa,
            Rdata::Unknown { rtype, .. } => RecordType::from_u16(*rtype),
        }
    }

    /// Encodes the RDATA body (without the RDLENGTH prefix).
    ///
    /// Names inside RDATA are *not* compressed, matching RFC 3597's rule
    /// that compression must not be used for types unknown to intermediaries
    /// and modern-server practice for the classic types as well.
    pub(crate) fn encode(&self, w: &mut Writer) {
        match self {
            Rdata::A(addr) => w.bytes(&addr.octets()),
            Rdata::Aaaa(addr) => w.bytes(&addr.octets()),
            Rdata::Cname(n) => Self::encode_name_plain(n, w),
            Rdata::Mx { preference, exchange } => {
                w.u16(*preference);
                Self::encode_name_plain(exchange, w);
            }
            Rdata::Txt(strings) => {
                for s in strings {
                    let bytes = s.as_bytes();
                    w.u8(bytes.len().min(255) as u8);
                    w.bytes(&bytes[..bytes.len().min(255)]);
                }
            }
            Rdata::Soa(soa) => {
                Self::encode_name_plain(&soa.mname, w);
                Self::encode_name_plain(&soa.rname, w);
                w.u32(soa.serial);
                w.u32(soa.refresh);
                w.u32(soa.retry);
                w.u32(soa.expire);
                w.u32(soa.minimum);
            }
            Rdata::Unknown { data, .. } => w.bytes(data),
        }
    }

    /// Writes a name in full, neither consulting nor feeding the
    /// compression table.
    fn encode_name_plain(name: &Name, w: &mut Writer) {
        w.bytes(name.as_wire());
    }

    /// Decodes RDATA of type `rtype` spanning exactly `rdlength` bytes.
    pub(crate) fn decode(rtype: RecordType, r: &mut Reader<'_>, rdlength: usize) -> Result<Rdata> {
        let rdata = match rtype {
            RecordType::A => {
                let b = r.bytes(4, "A rdata")?;
                Rdata::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RecordType::Aaaa => {
                let b = r.bytes(16, "AAAA rdata")?;
                let mut o = [0u8; 16];
                o.copy_from_slice(b);
                Rdata::Aaaa(Ipv6Addr::from(o))
            }
            RecordType::Cname => Rdata::Cname(Name::decode(r)?),
            RecordType::Mx => {
                Rdata::Mx { preference: r.u16("MX preference")?, exchange: Name::decode(r)? }
            }
            RecordType::Txt => {
                let end = r.position() + rdlength;
                let mut strings = Vec::new();
                while r.position() < end {
                    let len = r.u8("TXT length")? as usize;
                    if r.position() + len > end {
                        return Err(DnsError::Truncated { context: "TXT string" });
                    }
                    let raw = r.bytes(len, "TXT string")?;
                    strings.push(String::from_utf8_lossy(raw).into_owned());
                }
                Rdata::Txt(strings)
            }
            RecordType::Soa => Rdata::Soa(SoaRdata {
                mname: Name::decode(r)?,
                rname: Name::decode(r)?,
                serial: r.u32("SOA serial")?,
                refresh: r.u32("SOA refresh")?,
                retry: r.u32("SOA retry")?,
                expire: r.u32("SOA expire")?,
                minimum: r.u32("SOA minimum")?,
            }),
            other => Rdata::Unknown {
                rtype: other.to_u16(),
                data: r.bytes(rdlength, "unknown rdata")?.to_vec(),
            },
        };
        Ok(rdata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rdata: Rdata) {
        let mut w = Writer::new();
        rdata.encode(&mut w);
        let wire = w.finish();
        let mut r = Reader::new(&wire);
        let back = Rdata::decode(rdata.rtype(), &mut r, wire.len()).unwrap();
        assert_eq!(back, rdata);
        assert!(r.is_empty());
    }

    #[test]
    fn a_and_aaaa_round_trip() {
        round_trip(Rdata::A(Ipv4Addr::new(1, 2, 3, 4)));
        round_trip(Rdata::Aaaa("2606:4700::6810:84e5".parse().unwrap()));
    }

    #[test]
    fn name_bearing_rdata_round_trips() {
        let n = Name::parse("target.example.net").unwrap();
        round_trip(Rdata::Cname(n.clone()));
        round_trip(Rdata::Mx { preference: 10, exchange: n });
    }

    #[test]
    fn txt_round_trips_with_multiple_strings() {
        round_trip(Rdata::Txt(vec!["v=spf1 -all".into(), "second".into()]));
        round_trip(Rdata::Txt(vec![]));
    }

    #[test]
    fn soa_round_trips() {
        round_trip(Rdata::Soa(SoaRdata {
            mname: Name::parse("ns1.example.com").unwrap(),
            rname: Name::parse("hostmaster.example.com").unwrap(),
            serial: 2019091001,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        }));
    }

    #[test]
    fn unknown_type_preserves_bytes() {
        round_trip(Rdata::Unknown { rtype: 99, data: vec![1, 2, 3, 4, 5] });
        // A type with a name but no typed arm takes the same path: CAA.
        round_trip(Rdata::Unknown { rtype: 257, data: b"\x80\x05issuepki.goog".to_vec() });
        // So do NS, PTR, SRV and OPT: their bytes pass through untouched,
        // a name inside them neither read nor decompressed.
        let target = b"\x03doh\x07example\x03org\0";
        round_trip(Rdata::Unknown { rtype: 2, data: target.to_vec() });
        round_trip(Rdata::Unknown { rtype: 12, data: b"\x01a\xC0\x0C".to_vec() });
        round_trip(Rdata::Unknown {
            rtype: 33,
            data: [&[0, 0, 0, 5, 1, 187][..], target].concat(),
        });
        round_trip(Rdata::Unknown { rtype: 41, data: vec![0, 8, 0, 12, 1, 2] });
    }

    #[test]
    fn truncated_txt_string_is_an_error() {
        // Claims 10 bytes but only 2 present within rdlength.
        let wire = [10u8, b'a', b'b'];
        let mut r = Reader::new(&wire);
        assert!(Rdata::decode(RecordType::Txt, &mut r, wire.len()).is_err());
    }

    #[test]
    fn a_rdata_is_exactly_four_bytes() {
        let mut w = Writer::new();
        Rdata::A(Ipv4Addr::LOCALHOST).encode(&mut w);
        assert_eq!(w.finish().len(), 4);
    }
}
