//! Property-based tests for the DNS codecs.
//!
//! The workspace builds offline, so instead of `proptest` these use a small
//! in-file generator: a seeded SplitMix64 PRNG drives random message
//! construction, and every property is checked over many generated cases.
//! Failures print the offending seed so a case can be replayed exactly.

use dohmark_dns_wire::{
    jsontext,
    rdata::{CaaRdata, Rdata, SoaRdata, SrvRdata},
    JsonMessage, Message, Name, Rcode, Record, RecordType,
};

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
        match self.below(10) {
            0 => Rdata::A(u32::to_be_bytes(self.next() as u32).into()),
            1 => Rdata::Aaaa(
                u128::to_be_bytes((self.next() as u128) << 64 | self.next() as u128).into(),
            ),
            2 => Rdata::Cname(self.name()),
            3 => Rdata::Ns(self.name()),
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
            7 => Rdata::Srv(SrvRdata {
                priority: self.next() as u16,
                weight: self.next() as u16,
                port: self.next() as u16,
                target: self.name(),
            }),
            8 => Rdata::Caa(CaaRdata {
                critical: self.chance(2),
                tag: (0..1 + self.below(10))
                    .map(|_| (b'a' + self.below(26) as u8) as char)
                    .collect(),
                value: self.printable(30),
            }),
            9 => {
                let options = (0..self.below(3))
                    .map(|_| {
                        let code = self.next() as u16;
                        let data = (0..self.below(16)).map(|_| self.next() as u8).collect();
                        (code, data)
                    })
                    .collect();
                Rdata::Opt(options)
            }
            _ => unreachable!(),
        }
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
        let mut m = Message::query(id, &qname, RecordType::A);
        m.header.response = true;
        m.header.rcode = Rcode::NoError;
        m.answers = self.records(3);
        m.authorities = self.records(1);
        m.additionals = self.records(1);
        m
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
        let mut w = dohmark_dns_wire::wire::Writer::new();
        n.encode(&mut w);
        let buf = w.finish();
        let mut r = dohmark_dns_wire::wire::Reader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap(), n);
    });
}

/// Message encode/decode is the identity on the logical content.
#[test]
fn message_round_trip() {
    for_all_cases(|g| {
        let m = g.message();
        let wire = m.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back.questions, m.questions);
        assert_eq!(back.answers, m.answers);
        assert_eq!(back.authorities, m.authorities);
        assert_eq!(back.additionals, m.additionals);
    });
}

/// Compression is always a pure size optimisation: decoding the compressed
/// and uncompressed encodings yields identical messages, and compression
/// never enlarges a message.
#[test]
fn compression_is_transparent_and_monotone() {
    for_all_cases(|g| {
        let m = g.message();
        let compressed = m.encode();
        let plain = m.encode_uncompressed();
        assert!(compressed.len() <= plain.len());
        assert_eq!(Message::decode(&compressed).unwrap(), Message::decode(&plain).unwrap());
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
        m.answers.push(Record::new(late.clone(), 60, Rdata::Ns(g.name())));
        m.answers.push(Record::new(late.clone(), 60, Rdata::Cname(late.clone())));
        let compressed = m.encode();
        assert!(compressed.len() > 0x4000, "seed {seed}: only {} bytes", compressed.len());
        let back = Message::decode(&compressed).expect("compressed decode");
        assert_eq!(back.answers, m.answers, "seed {seed}");
        let plain = m.encode_uncompressed();
        assert!(compressed.len() <= plain.len());
        assert_eq!(Message::decode(&plain).expect("plain decode"), back, "seed {seed}");
    }
}

/// Messages survive a JSON round trip through the dns-json codec, for the
/// record types dns-json represents with typed data.
#[test]
fn json_round_trip() {
    for_all_cases(|g| {
        let mut m = g.message();
        m.authorities.clear();
        m.additionals.clear();
        m.answers.retain(|r| {
            matches!(
                r.rdata,
                Rdata::A(_)
                    | Rdata::Aaaa(_)
                    | Rdata::Cname(_)
                    | Rdata::Ns(_)
                    | Rdata::Ptr(_)
                    | Rdata::Mx { .. }
            )
        });
        let j = JsonMessage::from_message(&m);
        let back = JsonMessage::from_json(&j.to_json()).unwrap().to_message(m.header.id).unwrap();
        assert_eq!(back.answers, m.answers);
    });
}

/// The JSON text parser never panics on a corrupted `application/dns-json`
/// document — truncated, bit-flipped, spliced with another document or
/// followed by garbage — and its recursion is bounded by its own depth
/// limit, not by the stack it runs on.
#[test]
fn jsontext_parser_is_total_on_mutated_documents() {
    for_cases(4096, |g| {
        let doc = JsonMessage::from_message(&g.message()).to_json();
        let donor = JsonMessage::from_message(&g.message()).to_json();
        let mutated = g.mutate(doc.as_bytes(), donor.as_bytes());
        let _ = jsontext::parse(&String::from_utf8_lossy(&mutated));
    });
    assert!(jsontext::parse(&"[".repeat(200_000)).is_err());
}
