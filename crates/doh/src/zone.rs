//! Zone-backed answers with configurable TTLs — the authoritative data
//! behind both the legacy fixed-echo servers and the caching recursive
//! resolver's upstream.

use dohmark_dns_wire::{Message, Name, Rcode, Rdata, Record, RecordType, SoaRdata};
use std::net::Ipv4Addr;

/// How a [`Zone`] synthesises answers.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ZoneMode {
    /// Answer **every** query with one fixed A record — the paper's §3
    /// controlled echo resolver (byte-compatible with the old
    /// `Message::fixed_a_response` servers).
    Fixed(Ipv4Addr),
    /// Synthesise a deterministic per-name A record for A queries under
    /// `origin`; answer NXDOMAIN for names outside it and NODATA for
    /// non-A queries, each with the SOA in the authority section
    /// (RFC 2308 §3), whose TTL and `minimum` are `negative_ttl`.
    Synth { origin: Name, negative_ttl: u32 },
}

/// An authoritative zone: the answer source servers consult instead of a
/// hard-coded echo response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    ttl: u32,
    mode: ZoneMode,
}

impl Zone {
    /// The echo zone of the paper's controlled experiment: every query —
    /// whatever the name — gets one A record `answer` with `ttl`.
    pub(crate) fn fixed(answer: Ipv4Addr, ttl: u32) -> Zone {
        Zone { ttl, mode: ZoneMode::Fixed(answer) }
    }

    /// A synthetic zone rooted at `origin`: an A query for a name under
    /// it gets a deterministic per-name address with `ttl`; other types
    /// get NODATA and names outside it NXDOMAIN, both with `negative_ttl`
    /// as the RFC 2308 SOA minimum.
    pub fn synth(origin: Name, ttl: u32, negative_ttl: u32) -> Zone {
        Zone { ttl, mode: ZoneMode::Synth { origin, negative_ttl } }
    }

    /// The SOA record of a synthetic zone at `origin`, as served in the
    /// authority section of negative answers. Its TTL and `minimum` are
    /// both `negative_ttl`, so caches obeying RFC 2308's
    /// `min(SOA TTL, MINIMUM)` rule see exactly that value.
    fn soa_record(origin: &Name, negative_ttl: u32) -> Record {
        let mname = origin.child("ns1").unwrap_or_else(|_| origin.clone());
        let rname = origin.child("hostmaster").unwrap_or_else(|_| origin.clone());
        Record::new(
            origin.clone(),
            negative_ttl,
            Rdata::Soa(SoaRdata {
                mname,
                rname,
                serial: 1,
                refresh: 7_200,
                retry: 900,
                expire: 1_209_600,
                minimum: negative_ttl,
            }),
        )
    }

    /// Deterministic per-name address in `10.0.0.0/8` (FNV-1a over the
    /// bytes of the display form — each label and its dot, a lone dot for
    /// the root — so it is stable across runs and platforms).
    fn synth_addr(name: &Name) -> Ipv4Addr {
        let mut hash: u32 = 0x811C_9DC5;
        let mut fold = |byte: u8| {
            hash ^= u32::from(byte);
            hash = hash.wrapping_mul(0x0100_0193);
        };
        if name.is_root() {
            fold(b'.');
        }
        for label in name.labels() {
            label.bytes().for_each(&mut fold);
            fold(b'.');
        }
        let [_, b, c, d] = hash.to_be_bytes();
        Ipv4Addr::new(10, b, c, d)
    }

    /// The authoritative response to `query`.
    pub fn answer(&self, query: &Message) -> Message {
        let Some(q) = query.question() else {
            return Message::response(query, Rcode::FormErr, Vec::new());
        };
        match &self.mode {
            ZoneMode::Fixed(addr) => Message::fixed_a_response(query, *addr, self.ttl),
            ZoneMode::Synth { origin, negative_ttl } => {
                if !q.name.is_subdomain_of(origin) {
                    let mut m = Message::response(query, Rcode::NxDomain, Vec::new());
                    m.authorities.push(Zone::soa_record(origin, *negative_ttl));
                    m
                } else if q.qtype != RecordType::A {
                    // NODATA: the name exists, the type does not.
                    let mut m = Message::response(query, Rcode::NoError, Vec::new());
                    m.authorities.push(Zone::soa_record(origin, *negative_ttl));
                    m
                } else {
                    let addr = Zone::synth_addr(&q.name);
                    let record = Record::new(q.name.clone(), self.ttl, Rdata::A(addr));
                    Message::response(query, Rcode::NoError, vec![record])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> Name {
        Name::parse("dohmark.test").unwrap()
    }

    #[test]
    fn fixed_zone_matches_the_legacy_echo_response() {
        let zone = Zone::fixed(Ipv4Addr::new(192, 0, 2, 1), 300);
        // Whatever the name or type, the echo zone answers with its one A
        // record and no authority section.
        for (name, qtype) in [
            ("anything.example", RecordType::A),
            ("anything.example", RecordType::Aaaa),
            (".", RecordType::A),
        ] {
            let query = Message::query(7, &Name::parse(name).unwrap(), qtype);
            let answer = zone.answer(&query);
            assert_eq!(answer, Message::fixed_a_response(&query, Ipv4Addr::new(192, 0, 2, 1), 300));
            assert_eq!(answer.answers.len(), 1, "{name} {qtype:?}");
            assert!(answer.authorities.is_empty(), "{name} {qtype:?}");
        }
    }

    #[test]
    fn synth_zone_answers_are_deterministic_and_distinct() {
        let zone = Zone::synth(origin(), 300, 30);
        let q = |label: &str| Message::query(1, &origin().child(label).unwrap(), RecordType::A);
        let a1 = zone.answer(&q("wwwwwww1"));
        let a2 = zone.answer(&q("wwwwwww2"));
        assert_eq!(a1, zone.answer(&q("wwwwwww1")), "same name, same answer");
        assert_eq!(a1.answers.len(), 1);
        assert_eq!(a1.answers[0].ttl, 300);
        assert_ne!(a1.answers[0].rdata, a2.answers[0].rdata, "names hash apart");
    }

    #[test]
    fn foreign_names_get_nxdomain_with_soa() {
        let zone = Zone::synth(origin(), 300, 45);
        let name = Name::parse("other.example").unwrap();
        let resp = zone.answer(&Message::query(2, &name, RecordType::A));
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities.len(), 1, "SOA must ride in the authority section");
        let soa = &resp.authorities[0];
        assert_eq!(soa.ttl, 45);
        assert!(matches!(&soa.rdata, Rdata::Soa(s) if s.minimum == 45));
    }

    #[test]
    fn non_a_queries_get_nodata_with_soa() {
        let zone = Zone::synth(origin(), 300, 30);
        let resp =
            zone.answer(&Message::query(3, &origin().child("wwwwwww1").unwrap(), RecordType::Aaaa));
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities.len(), 1);
    }

    #[test]
    fn synth_addresses_are_the_fnv1a_of_the_display_form() {
        // Literals computed with the `name.to_string().bytes()` fold this
        // replaced: every fleet report digest hangs on them.
        let addr = |s: &str| Zone::synth_addr(&Name::parse(s).unwrap());
        assert_eq!(addr("wwwwwww1.dohmark.test"), Ipv4Addr::new(10, 4, 236, 67));
        assert_eq!(addr("Mail-7.sub.Example.org"), Ipv4Addr::new(10, 119, 2, 64));
        assert_eq!(addr("."), Ipv4Addr::new(10, 12, 152, 241));
    }
}
