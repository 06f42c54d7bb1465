//! Property-based tests for the HTTP codecs.
//!
//! Same pattern as `dns-wire/tests/prop.rs`: the workspace builds
//! offline, so instead of `proptest` a small in-file SplitMix64 generator
//! drives random inputs, and every property is checked over many cases.
//! Failures print the offending seed so a case can be replayed exactly.

use dohmark_httpsim::h1::{Fields, H1Error, Request, RequestParser, Response, ResponseParser};
use dohmark_httpsim::h2::{Frame, FrameDecoder, H2Error};
use dohmark_httpsim::hpack::{huffman_decode, huffman_encode, Decoder, Encoder, HpackError};

const CASES: u64 = 192;
/// Cases per decoder in the mutation harness (cheap: no round trip).
const MUTATIONS: u64 = 4096;

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

    /// A header-name token: `[a-z][a-z0-9-]{0,14}`, sometimes a
    /// well-known name so the static table gets exercised.
    fn header_name(&mut self) -> String {
        const KNOWN: [&str; 8] = [
            "content-type",
            "content-length",
            "accept",
            "user-agent",
            "cache-control",
            "x-padding",
            "etag",
            "via",
        ];
        if self.chance(3) {
            return KNOWN[self.below(KNOWN.len() as u64) as usize].to_string();
        }
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
        let len = self.below(15) as usize;
        let mut s = String::new();
        s.push(FIRST[self.below(26) as usize] as char);
        for _ in 0..len {
            s.push(REST[self.below(REST.len() as u64) as usize] as char);
        }
        s
    }

    /// A header value: printable ASCII without CR/LF, no edge whitespace
    /// (HTTP/1.1 parsing trims optional whitespace around values).
    fn header_value(&mut self, max: u64) -> String {
        let len = self.below(max + 1);
        let mut s: String = (0..len).map(|_| (0x20 + self.below(0x5F)) as u8 as char).collect();
        while s.starts_with(' ') || s.ends_with(' ') {
            s = s.trim().to_string();
        }
        s
    }

    fn headers(&mut self, max: u64) -> Vec<(String, String)> {
        (0..self.below(max + 1)).map(|_| (self.header_name(), self.header_value(30))).collect()
    }

    fn bytes(&mut self, max: u64) -> Vec<u8> {
        (0..self.below(max + 1)).map(|_| self.next() as u8).collect()
    }

    /// Randomises ASCII case, e.g. `content-length` → `CoNtEnT-LeNgTh`.
    fn mangle_case(&mut self, s: &str) -> String {
        s.chars()
            .map(|c| if self.chance(2) { c.to_ascii_uppercase() } else { c.to_ascii_lowercase() })
            .collect()
    }

    /// One random HTTP/2 frame of any kind, unknown types included.
    fn frame(&mut self) -> Frame {
        let stream_id = self.next() as u32 & 0x7FFF_FFFF;
        match self.below(8) {
            0 => Frame::Data { stream_id, data: self.bytes(60), end_stream: self.chance(2) },
            1 => Frame::Headers { stream_id, block: self.bytes(60), end_stream: self.chance(2) },
            2 => Frame::Settings {
                params: (0..self.below(4))
                    .map(|_| (self.next() as u16, self.next() as u32))
                    .collect(),
                ack: false,
            },
            3 => Frame::WindowUpdate { stream_id, increment: self.next() as u32 & 0x7FFF_FFFF },
            4 => Frame::Ping { data: self.next().to_be_bytes(), ack: self.chance(2) },
            5 => Frame::Goaway {
                last_stream_id: stream_id,
                error_code: self.next() as u32,
                debug: self.bytes(20),
            },
            6 => Frame::RstStream { stream_id, error_code: self.next() as u32 },
            _ => Frame::Unknown { frame_type: 0x20, stream_id, payload: self.bytes(30) },
        }
    }

    /// One seeded corruption of the valid encoding `valid`: truncate it,
    /// flip one bit, overwrite a span with a slice of `donor` (another
    /// valid encoding, so the splice is plausible input), saturate a run
    /// of 1–20 bytes to `0xFF` or ASCII `f` (the largest value a binary
    /// or a hexadecimal length field can hold), or append garbage.
    fn mutate(&mut self, valid: &[u8], donor: &[u8]) -> Vec<u8> {
        let mut out = valid.to_vec();
        match self.below(5) {
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
            3 if !out.is_empty() => {
                let at = self.below(out.len() as u64) as usize;
                let end = (at + 1 + self.below(20) as usize).min(out.len());
                out[at..end].fill(if self.chance(2) { 0xFF } else { b'f' });
            }
            _ => out.extend(self.bytes(32)),
        }
        out
    }
}

// ---------------------------------------------------------------------
// Borrowed entry points: one more way to read the same input
// ---------------------------------------------------------------------
//
// Each codec has an owned entry point and a borrowed one under it. The
// properties below run both over the same bytes, on twin codec states, and
// require the borrowed one to see exactly what the owned one returns:
// fields and their order, the error value, the bytes left unconsumed.

/// An HPACK codec pair and its twin, driven through the borrowed entry
/// points: a `(&str, &str)` list into `encode_into`, `decode_with` out.
struct HpackTwins {
    enc: Encoder,
    dec: Decoder,
    enc_ref: Encoder,
    dec_ref: Decoder,
}

impl HpackTwins {
    fn with_capacity(capacity: usize) -> HpackTwins {
        HpackTwins {
            enc: Encoder::with_capacity(capacity),
            dec: Decoder::with_capacity(capacity),
            enc_ref: Encoder::with_capacity(capacity),
            dec_ref: Decoder::with_capacity(capacity),
        }
    }

    /// Encodes `headers` both ways — the blocks must be the same bytes.
    fn encode(&mut self, headers: &[(String, String)], context: &str) -> Vec<u8> {
        let block = self.enc.encode(headers);
        let borrowed: Vec<(&str, &str)> =
            headers.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
        let mut framed = vec![0xEE; 3];
        self.enc_ref.encode_into(&borrowed, &mut framed);
        assert_eq!(framed[..3], [0xEE; 3], "{context}: encode_into appends");
        assert_eq!(framed[3..], block, "{context}: borrowed and owned lists encode alike");
        assert_eq!(self.enc_ref.table_size(), self.enc.table_size(), "{context}");
        block
    }

    /// Decodes `block` both ways — same fields in the same order or the
    /// same error, and the same table afterwards.
    fn decode(&mut self, block: &[u8], context: &str) -> Result<Vec<(String, String)>, HpackError> {
        let owned = self.dec.decode(block);
        let mut fields = Vec::new();
        let borrowed = self
            .dec_ref
            .decode_with(block, |n, v| fields.push((n.to_string(), v.to_string())))
            .map(|()| fields);
        assert_eq!(borrowed, owned, "{context}: decode_with and decode disagree");
        assert_eq!(self.dec_ref.table_size(), self.dec.table_size(), "{context}");
        owned
    }
}

fn owned_fields(fields: Fields<'_>) -> Vec<(String, String)> {
    fields.iter().map(|(n, v)| (n.to_string(), v.to_string())).collect()
}

/// A request parser and its twin read through `next_ref`.
#[derive(Default)]
struct RequestTwins(RequestParser, RequestParser);

impl RequestTwins {
    fn push(&mut self, bytes: &[u8]) {
        self.0.push(bytes);
        self.1.push(bytes);
    }

    fn next(&mut self, context: &str) -> Result<Option<Request>, H1Error> {
        let owned = self.0.next_request();
        let borrowed = self.1.next_ref().map(|view| {
            view.map(|r| Request {
                method: r.method.to_string(),
                target: r.target.to_string(),
                headers: owned_fields(r.fields),
                body: r.body.to_vec(),
            })
        });
        assert_eq!(borrowed, owned, "{context}: next_ref and next_request disagree");
        owned
    }
}

/// A response parser and its twin read through `next_ref`.
#[derive(Default)]
struct ResponseTwins(ResponseParser, ResponseParser);

impl ResponseTwins {
    fn push(&mut self, bytes: &[u8]) {
        self.0.push(bytes);
        self.1.push(bytes);
    }

    fn next(&mut self, context: &str) -> Result<Option<Response>, H1Error> {
        let owned = self.0.next_response();
        let borrowed = self.1.next_ref().map(|view| {
            view.map(|r| Response {
                status: r.status,
                reason: r.reason.to_string(),
                headers: owned_fields(r.fields),
                body: r.body.to_vec(),
            })
        });
        assert_eq!(borrowed, owned, "{context}: next_ref and next_response disagree");
        owned
    }
}

/// A frame decoder and its twin read through `next_ref`.
#[derive(Default)]
struct FrameTwins(FrameDecoder, FrameDecoder);

impl FrameTwins {
    fn push(&mut self, bytes: &[u8]) {
        self.0.push(bytes);
        self.1.push(bytes);
    }

    fn next(&mut self, context: &str) -> Result<Option<Frame>, H2Error> {
        let owned = self.0.next_frame();
        let borrowed = self.1.next_ref().map(|view| view.map(|frame| frame.to_owned()));
        assert_eq!(borrowed, owned, "{context}: next_ref and next_frame disagree");
        assert_eq!(self.1.buffered(), self.0.buffered(), "{context}: bytes consumed");
        owned
    }
}

// ---------------------------------------------------------------------
// HPACK
// ---------------------------------------------------------------------

#[test]
fn hpack_random_header_lists_round_trip() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let mut hpack = HpackTwins::with_capacity(4096);
        for round in 0..4 {
            let context = format!("seed {seed} round {round}");
            let headers = g.headers(12);
            let block = hpack.encode(&headers, &context);
            let decoded = hpack
                .decode(&block, &context)
                .unwrap_or_else(|e| panic!("{context}: decode failed: {e}"));
            assert_eq!(decoded, headers, "{context}");
        }
    }
}

#[test]
fn hpack_round_trips_through_dynamic_table_evictions() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        // Tiny tables (0..=160 octets) force constant eviction churn;
        // entries are ~35-80 octets each (name + value + 32).
        let capacity = (g.below(5) * 40) as usize;
        let mut hpack = HpackTwins::with_capacity(capacity);
        for round in 0..8 {
            let context = format!("seed {seed} round {round} cap {capacity}");
            let headers = g.headers(6);
            let block = hpack.encode(&headers, &context);
            let decoded = hpack
                .decode(&block, &context)
                .unwrap_or_else(|e| panic!("{context}: decode failed: {e}"));
            assert_eq!(decoded, headers, "{context}");
            assert_eq!(
                hpack.enc.table_size(),
                hpack.dec.table_size(),
                "{context}: tables diverged"
            );
            assert!(hpack.enc.table_size() <= capacity, "{context}: eviction failed");
        }
    }
}

#[test]
fn hpack_capacity_changes_mid_stream_stay_in_lockstep() {
    for seed in 0..CASES / 4 {
        let mut g = Gen::new(seed);
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        for round in 0..6 {
            if g.chance(2) {
                enc.set_capacity((g.below(8) * 32) as usize);
            }
            let headers = g.headers(5);
            let block = enc.encode(&headers);
            assert_eq!(dec.decode(&block).unwrap(), headers, "seed {seed} round {round}");
            assert_eq!(enc.table_size(), dec.table_size(), "seed {seed} round {round}");
        }
    }
}

#[test]
fn huffman_round_trips_arbitrary_bytes() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let input = g.bytes(200);
        let coded = huffman_encode(&input);
        assert_eq!(huffman_decode(&coded).unwrap(), input, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// HTTP/1.1
// ---------------------------------------------------------------------

/// Compares header lists modulo name case.
fn headers_match(sent: &[(String, String)], got: &[(String, String)]) -> bool {
    sent.len() == got.len()
        && sent.iter().zip(got).all(|((an, av), (bn, bv))| an.eq_ignore_ascii_case(bn) && av == bv)
}

#[test]
fn h1_random_requests_round_trip_across_segmentation() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let mut headers = g.headers(8);
        // Framing headers are supplied by the encoder; random lists must
        // not carry their own (a random "content-length: <garbage>" would
        // be a *different*, legitimately rejected message).
        headers.retain(|(n, _)| {
            !n.eq_ignore_ascii_case("content-length")
                && !n.eq_ignore_ascii_case("transfer-encoding")
        });
        let body = g.bytes(300);
        let chunked = g.chance(3);
        if chunked {
            headers.push(("Transfer-Encoding".to_string(), "chunked".to_string()));
        }
        // Odd header casing must survive the trip (case-insensitively).
        for (name, _) in headers.iter_mut() {
            *name = g.mangle_case(name);
        }
        let request = Request::new("POST", "/dns-query", headers.clone()).with_body(body.clone());
        let wire = request.encode().concat();
        let mut parser = RequestTwins::default();
        let step = 1 + g.below(40) as usize;
        let mut got = None;
        for chunk in wire.chunks(step) {
            parser.push(chunk);
            if let Some(req) = parser.next(&format!("seed {seed}")).unwrap_or_else(|e| {
                panic!("seed {seed}: parse failed: {e}");
            }) {
                got = Some(req);
            }
        }
        let got = got.unwrap_or_else(|| panic!("seed {seed}: no request parsed"));
        assert_eq!(got.method, "POST", "seed {seed}");
        assert_eq!(got.body, body, "seed {seed}");
        let mut sent = headers.clone();
        if !chunked && !body.is_empty() {
            sent.push(("content-length".to_string(), body.len().to_string()));
        }
        assert!(headers_match(&sent, &got.headers), "seed {seed}: {sent:?} vs {:?}", got.headers);
    }
}

#[test]
fn h1_pipelined_random_responses_round_trip() {
    for seed in 0..CASES / 2 {
        let mut g = Gen::new(seed);
        let count = 1 + g.below(4) as usize;
        let mut wire = Vec::new();
        let mut sent = Vec::new();
        for _ in 0..count {
            let mut headers = g.headers(5);
            headers.retain(|(n, _)| {
                !n.eq_ignore_ascii_case("content-length")
                    && !n.eq_ignore_ascii_case("transfer-encoding")
            });
            if g.chance(3) {
                headers.push((g.mangle_case("transfer-encoding"), "chunked".to_string()));
            }
            let body = g.bytes(200);
            let status = 200 + (g.below(5) as u16) * 100;
            let response = Response::new(status, "Status", headers).with_body(body);
            wire.extend(response.encode().concat());
            sent.push(response);
        }
        let mut parser = ResponseTwins::default();
        let mut got = Vec::new();
        let step = 1 + g.below(64) as usize;
        for chunk in wire.chunks(step) {
            parser.push(chunk);
            while let Some(resp) =
                parser.next(&format!("seed {seed}")).unwrap_or_else(|e| panic!("seed {seed}: {e}"))
            {
                got.push(resp);
            }
        }
        assert_eq!(got.len(), sent.len(), "seed {seed}");
        for (s, r) in sent.iter().zip(&got) {
            assert_eq!(s.status, r.status, "seed {seed}");
            assert_eq!(s.body, r.body, "seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------
// Mutation harness: corrupted valid encodings never panic a decoder
// ---------------------------------------------------------------------
//
// The round trips above only ever show the decoders well-formed input.
// These feed them truncated, bit-flipped, spliced and garbage-extended
// encodings and require an `Ok` or an `Err` — a panic (index, overflow,
// allocation) fails the test — and an output the input's size bounds.

/// Runs `check` over [`MUTATIONS`] seeded cases. A panic inside a decoder
/// carries no seed of its own, so it is printed before unwinding resumes.
fn for_mutations(check: impl Fn(u64, &mut Gen)) {
    for seed in 0..MUTATIONS {
        let mut g = Gen::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(seed, &mut g)));
        if let Err(payload) = result {
            eprintln!("mutation harness failed for generator seed {seed}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Pulls from an incremental decoder until it stops (`Ok(None)` or
/// `Err`) and returns how many items came out. Every item consumes at
/// least one input byte, so more than `input_len` of them means the
/// decoder yields without consuming and would never terminate.
fn drain_bounded<T, E>(
    input_len: usize,
    seed: u64,
    mut next: impl FnMut() -> Result<Option<T>, E>,
) -> usize {
    for yielded in 0..=input_len {
        if !matches!(next(), Ok(Some(_))) {
            return yielded;
        }
    }
    panic!("seed {seed}: more than {input_len} items out of {input_len} bytes");
}

#[test]
fn hpack_decoder_is_total_on_mutated_blocks_cold_and_warm() {
    for_mutations(|seed, g| {
        let mut enc = Encoder::new();
        let first = enc.encode(&g.headers(12));
        let second = enc.encode(&g.headers(12));
        // Cold: the corrupted block is the first thing the decoder sees.
        let context = format!("seed {seed}");
        let block = g.mutate(&first, &second);
        if let Ok(headers) = HpackTwins::with_capacity(4096).decode(&block, &context) {
            assert!(headers.len() <= block.len(), "seed {seed}: one field per octet at most");
        }
        // Warm: after one valid block the dynamic table is populated, so
        // corrupted indices can reach it.
        let mut dec = HpackTwins::with_capacity(4096);
        dec.decode(&first, &context).unwrap_or_else(|e| panic!("seed {seed}: valid block: {e}"));
        let block = g.mutate(&second, &first);
        if let Ok(headers) = dec.decode(&block, &context) {
            assert!(headers.len() <= block.len(), "seed {seed}: one field per octet at most");
        }
    });
}

#[test]
fn huffman_decode_is_total_on_mutated_input() {
    for_mutations(|seed, g| {
        let coded = huffman_encode(&g.bytes(200));
        let donor = huffman_encode(&g.bytes(200));
        let input = g.mutate(&coded, &donor);
        if let Ok(out) = huffman_decode(&input) {
            // The shortest code is 5 bits.
            assert!(
                out.len() * 5 <= input.len() * 8,
                "seed {seed}: {} from {}",
                out.len(),
                input.len()
            );
        }
    });
}

#[test]
fn h2_frame_decoder_is_total_and_bounded_on_mutated_streams() {
    for_mutations(|seed, g| {
        let stream: Vec<u8> = (0..1 + g.below(4)).flat_map(|_| g.frame().encode()).collect();
        let donor = g.frame().encode();
        let input = g.mutate(&stream, &donor);
        let mut dec = FrameTwins::default();
        let step = 1 + g.below(64) as usize;
        let mut frames = 0;
        for chunk in input.chunks(step) {
            dec.push(chunk);
            frames += drain_bounded(input.len(), seed, || dec.next(&format!("seed {seed}")));
        }
        // Each frame has a 9-octet header.
        assert!(
            frames * 9 <= input.len(),
            "seed {seed}: {frames} frames from {} bytes",
            input.len()
        );
    });
}

#[test]
fn h1_parsers_are_total_and_bounded_on_mutated_messages() {
    for_mutations(|seed, g| {
        let mut headers = g.headers(6);
        if g.chance(3) {
            headers.push(("Transfer-Encoding".to_string(), "chunked".to_string()));
        }
        let request = Request::new("POST", "/dns-query", headers.clone()).with_body(g.bytes(100));
        let response = Response::new(200, "OK", headers).with_body(g.bytes(100));
        let (request, response) = (request.encode().concat(), response.encode().concat());

        let context = format!("seed {seed}");
        let input = g.mutate(&request, &response);
        let mut parser = RequestTwins::default();
        parser.push(&input);
        drain_bounded(input.len(), seed, || parser.next(&context));

        let input = g.mutate(&response, &request);
        let mut parser = ResponseTwins::default();
        parser.push(&input);
        drain_bounded(input.len(), seed, || parser.next(&context));
    });
}
