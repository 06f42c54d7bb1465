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

/// The fixed DNS header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Transaction identifier echoed by the server.
    pub id: u16,
    /// `true` for responses, `false` for queries (QR bit).
    pub response: bool,
    /// Operation code, the 4-bit wire value: 0 (standard query) is the
    /// only one this study sends.
    pub opcode: u8,
    /// Authoritative answer (AA).
    pub authoritative: bool,
    /// Truncation (TC) — set when a UDP answer did not fit.
    pub truncated: bool,
    /// Recursion desired (RD).
    pub recursion_desired: bool,
    /// Recursion available (RA).
    pub recursion_available: bool,
    /// Authenticated data (AD, RFC 4035).
    pub authentic_data: bool,
    /// Checking disabled (CD, RFC 4035).
    pub checking_disabled: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Entries in the question section.
    pub qdcount: u16,
    /// Entries in the answer section.
    pub ancount: u16,
    /// Entries in the authority section.
    pub nscount: u16,
    /// Entries in the additional section.
    pub arcount: u16,
}

impl Header {
    /// Size of the header on the wire.
    pub(crate) const WIRE_LEN: usize = 12;

    /// A recursive query header with the given transaction id.
    pub(crate) fn new_query(id: u16) -> Header {
        Header {
            id,
            response: false,
            opcode: 0,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            authentic_data: false,
            checking_disabled: false,
            rcode: Rcode::NoError,
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 0,
        }
    }

    /// A response header answering `query`.
    pub(crate) fn new_response(query: &Header, rcode: Rcode) -> Header {
        Header {
            id: query.id,
            response: true,
            opcode: query.opcode,
            authoritative: false,
            truncated: false,
            recursion_desired: query.recursion_desired,
            recursion_available: true,
            authentic_data: false,
            checking_disabled: query.checking_disabled,
            rcode,
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 0,
        }
    }

    /// Encodes the 12-byte header.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.id);
        let mut flags: u16 = 0;
        if self.response {
            flags |= 1 << 15;
        }
        flags |= u16::from(self.opcode & 0x0F) << 11;
        if self.authoritative {
            flags |= 1 << 10;
        }
        if self.truncated {
            flags |= 1 << 9;
        }
        if self.recursion_desired {
            flags |= 1 << 8;
        }
        if self.recursion_available {
            flags |= 1 << 7;
        }
        if self.authentic_data {
            flags |= 1 << 5;
        }
        if self.checking_disabled {
            flags |= 1 << 4;
        }
        flags |= self.rcode.to_u8() as u16;
        w.u16(flags);
        w.u16(self.qdcount);
        w.u16(self.ancount);
        w.u16(self.nscount);
        w.u16(self.arcount);
    }

    /// Decodes the 12-byte header.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Header> {
        let id = r.u16("header id")?;
        let flags = r.u16("header flags")?;
        let header = Header {
            id,
            response: flags & (1 << 15) != 0,
            opcode: ((flags >> 11) & 0x0F) as u8,
            authoritative: flags & (1 << 10) != 0,
            truncated: flags & (1 << 9) != 0,
            recursion_desired: flags & (1 << 8) != 0,
            recursion_available: flags & (1 << 7) != 0,
            authentic_data: flags & (1 << 5) != 0,
            checking_disabled: flags & (1 << 4) != 0,
            rcode: Rcode::from_u8((flags & 0x0F) as u8),
            qdcount: r.u16("qdcount")?,
            ancount: r.u16("ancount")?,
            nscount: r.u16("nscount")?,
            arcount: r.u16("arcount")?,
        };
        Ok(header)
    }

    /// Guards against absurd section counts before allocating.
    pub(crate) fn validate_counts(&self, message_len: usize) -> Result<()> {
        // The smallest possible record is a root-name question: 5 bytes;
        // a count that cannot possibly fit flags a hostile message early.
        let total = self.qdcount as usize
            + self.ancount as usize
            + self.nscount as usize
            + self.arcount as usize;
        if total * 5 > message_len.saturating_sub(Header::WIRE_LEN) {
            return Err(DnsError::CountMismatch { section: "total" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(h: &Header) -> Header {
        let mut w = Writer::new();
        h.encode(&mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), Header::WIRE_LEN);
        Header::decode(&mut Reader::new(&buf)).unwrap()
    }

    #[test]
    fn query_header_round_trip() {
        let h = Header::new_query(0xABCD);
        assert_eq!(round_trip(&h), h);
    }

    #[test]
    fn response_header_round_trip_with_all_flags() {
        let mut h = Header::new_response(&Header::new_query(7), Rcode::NxDomain);
        h.authoritative = true;
        h.truncated = true;
        h.authentic_data = true;
        h.checking_disabled = true;
        h.ancount = 3;
        h.nscount = 1;
        h.arcount = 2;
        assert_eq!(round_trip(&h), h);
    }

    #[test]
    fn response_echoes_id_and_rd() {
        let q = Header::new_query(42);
        let r = Header::new_response(&q, Rcode::NoError);
        assert_eq!(r.id, 42);
        assert!(r.response);
        assert!(r.recursion_desired);
        assert!(r.recursion_available);
    }

    #[test]
    fn opcode_and_rcode_round_trip_all_values() {
        for v in 0..16u8 {
            let mut h = Header::new_query(1);
            h.opcode = v;
            assert_eq!(round_trip(&h), h);
            assert_eq!(Rcode::from_u8(v).to_u8(), v);
        }
        // Only the low four bits reach the wire.
        let mut h = Header::new_query(1);
        h.opcode = 0x15;
        assert_eq!(round_trip(&h).opcode, 0x05);
    }

    #[test]
    fn truncated_header_is_an_error() {
        let buf = [0u8; 11];
        assert!(Header::decode(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn qr_bit_distinguishes_query_from_response() {
        let q = Header::new_query(1);
        let mut w = Writer::new();
        q.encode(&mut w);
        let buf = w.finish();
        assert_eq!(buf[2] & 0x80, 0);
        let r = Header::new_response(&q, Rcode::NoError);
        let mut w2 = Writer::new();
        r.encode(&mut w2);
        assert_eq!(w2.finish()[2] & 0x80, 0x80);
    }
}
