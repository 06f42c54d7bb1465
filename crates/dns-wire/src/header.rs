//! The 12-byte DNS message header (RFC 1035 §4.1.1).

use crate::error::{DnsError, Result};
use crate::wire::{Reader, Writer};

/// DNS response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// The query was malformed.
    FormErr,
    /// The server failed internally.
    ServFail,
    /// The name does not exist.
    NxDomain,
    /// The server does not implement the request.
    NotImp,
    /// Policy refusal.
    Refused,
    /// Any extended or unmodelled rcode.
    Other(u8),
}

impl Rcode {
    /// The 4-bit wire value.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0F,
        }
    }

    /// Decodes the 4-bit wire value.
    pub(crate) fn from_u8(v: u8) -> Rcode {
        match v & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// QR: the message is a response.
const QR: u16 = 1 << 15;
/// The 4-bit OPCODE field.
const OPCODE: u16 = 0xF << 11;
/// RD: recursion desired.
const RD: u16 = 1 << 8;
/// RA: recursion available.
const RA: u16 = 1 << 7;
/// CD: checking disabled (RFC 4035 §3.2.2).
const CD: u16 = 1 << 4;
/// The 4-bit RCODE field, which [`Header::rcode`] holds instead.
const RCODE: u16 = 0xF;

/// The fixed DNS header less its four section counts, which are the
/// lengths of the [`Message`](crate::Message)'s sections: its encoder
/// writes them and its decoder reads its sections by them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Transaction identifier echoed by the server.
    pub id: u16,
    /// The second header word without its RCODE nibble: QR, OPCODE, AA,
    /// TC, RD, RA, Z, AD and CD at their wire positions.
    pub flags: u16,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    /// Size of the header on the wire.
    pub(crate) const WIRE_LEN: usize = 12;

    /// A recursive query header (RD set) with the given transaction id.
    pub(crate) fn new_query(id: u16) -> Header {
        Header { id, flags: RD, rcode: Rcode::NoError }
    }

    /// A response header answering `query`: QR and RA set, and the
    /// query's OPCODE, RD and CD echoed.
    pub(crate) fn new_response(query: &Header, rcode: Rcode) -> Header {
        Header { id: query.id, flags: QR | RA | (query.flags & (OPCODE | RD | CD)), rcode }
    }

    /// Encodes the 12-byte header, with `counts` the lengths of the
    /// question, answer, authority and additional sections.
    pub(crate) fn encode(&self, counts: [u16; 4], w: &mut Writer) {
        w.u16(self.id);
        w.u16((self.flags & !RCODE) | u16::from(self.rcode.to_u8()));
        for count in counts {
            w.u16(count);
        }
    }

    /// Decodes the 12-byte header and its four section counts.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<(Header, [u16; 4])> {
        let id = r.u16("header id")?;
        let word = r.u16("header flags")?;
        let header = Header { id, flags: word & !RCODE, rcode: Rcode::from_u8(word as u8) };
        let counts = [r.u16("qdcount")?, r.u16("ancount")?, r.u16("nscount")?, r.u16("arcount")?];
        Ok((header, counts))
    }

    /// Guards against absurd section counts before allocating.
    pub(crate) fn validate_counts(counts: [u16; 4], message_len: usize) -> Result<()> {
        // The smallest possible record is a root-name question: 5 bytes;
        // a count that cannot possibly fit flags a hostile message early.
        let total: usize = counts.iter().map(|&c| usize::from(c)).sum();
        if total * 5 > message_len.saturating_sub(Header::WIRE_LEN) {
            return Err(DnsError::CountMismatch { section: "total" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// AA, TC, Z and AD: the flags a response does not take from its query.
    const AA_TC_Z_AD: u16 = 0x0660;

    fn encode(h: &Header, counts: [u16; 4]) -> Vec<u8> {
        let mut w = Writer::new();
        h.encode(counts, &mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), Header::WIRE_LEN);
        buf
    }

    fn round_trip(h: &Header, counts: [u16; 4]) -> (Header, [u16; 4]) {
        Header::decode(&mut Reader::new(&encode(h, counts))).unwrap()
    }

    #[test]
    fn query_header_round_trip() {
        let h = Header::new_query(0xABCD);
        assert_eq!(encode(&h, [1, 0, 0, 0]), [0xAB, 0xCD, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(round_trip(&h, [1, 0, 0, 0]), (h, [1, 0, 0, 0]));
    }

    #[test]
    fn response_header_round_trip_with_all_flags() {
        // Bits 4–15 of the second word are flags, Z (bit 6) included.
        let counts = [1, 3, 1, 2];
        for bit in 4..16 {
            let h = Header { id: 7, flags: 1 << bit, rcode: Rcode::NxDomain };
            assert_eq!(round_trip(&h, counts), (h, counts), "bit {bit}");
        }
        let all = Header { id: 7, flags: !RCODE, rcode: Rcode::NxDomain };
        assert_eq!(encode(&all, counts)[2..], [0xFF, 0xF3, 0, 1, 0, 3, 0, 1, 0, 2]);
        assert_eq!(round_trip(&all, counts), (all, counts));
    }

    #[test]
    fn response_echoes_id_and_rd() {
        // And the opcode and CD; QR and RA are set, and the query's AA,
        // TC, Z and AD stay behind.
        for opcode in 0..16u16 {
            for echoed in [0, RD, CD, RD | CD] {
                let flags = (opcode << 11) | echoed;
                let query = Header { id: 42, flags: flags | AA_TC_Z_AD, rcode: Rcode::NoError };
                let expected = Header { id: 42, flags: QR | RA | flags, rcode: Rcode::ServFail };
                assert_eq!(Header::new_response(&query, Rcode::ServFail), expected);
            }
        }
    }

    #[test]
    fn opcode_and_rcode_round_trip_all_values() {
        for v in 0..16u8 {
            let h = Header { id: 1, flags: u16::from(v) << 11, rcode: Rcode::from_u8(v) };
            assert_eq!(round_trip(&h, [0; 4]).0, h);
            assert_eq!(Rcode::from_u8(v).to_u8(), v);
        }
        // Only `rcode` reaches the RCODE nibble, never the low bits of
        // `flags`.
        let h = Header { id: 1, flags: RD | RCODE, rcode: Rcode::NoError };
        assert_eq!(encode(&h, [0; 4])[2..4], [0x01, 0x00]);
    }

    #[test]
    fn truncated_header_is_an_error() {
        let buf = [0u8; 11];
        assert!(Header::decode(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn qr_bit_distinguishes_query_from_response() {
        let q = Header::new_query(1);
        assert_eq!(encode(&q, [0; 4])[2] & 0x80, 0);
        let r = Header::new_response(&q, Rcode::NoError);
        assert_eq!(encode(&r, [0; 4])[2..4], [0x81, 0x80]);
    }
}
