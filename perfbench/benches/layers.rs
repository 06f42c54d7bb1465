//! The traced layer run: calls into leaf public functions of each layer,
//! in-process, under the counting allocator.
//!
//! `_ns` is the lower quartile of the timed samples, per operation.
//! `_allocs`, `_events`, `_bytes` and `_drops` come from fixed-size passes
//! from fresh state, so they are exact, repeat from run to run, and are
//! asserted equal between two passes. Corpora are generated here from
//! `--seed` via `SimRng`; the layers receive only bytes and values.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::time::{Duration, Instant};

use dohmark::dns::{jsontext, Message, Name, Rcode, Rdata, Record, RecordType};
use dohmark::doh::cache::DnsCache;
use dohmark::doh::zone::Zone;
use dohmark::http::h1::{Request, RequestParser};
use dohmark::http::h2::{Frame, FrameDecoder};
use dohmark::http::hpack;
use dohmark::netsim::{
    HostId, LayerTag, LinkConfig, Sim, SimDuration, SimRng, SimTime, SockId, TcpHandle, Wake,
};
use dohmark::tls::{handshake_flights, seal, Deframer, TlsConfig, ALPN_H2};
use dohmark::workload::{FleetSchedule, SiteModel, ZipfNames};

use crate::anatomy::{self, Anatomy};
use crate::corpus::{
    doh_request_headers, owned, random_names, tcp_pair, two_hosts, zone, NAMES_STREAM,
};
use crate::record::{quartiles, Metrics};
use crate::reference::SpeedGauge;

/// `(name, unit, better)` of every per-layer metric, as in BENCHMARK.json
/// (`--quick` checks the two agree).
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("dns-wire.query_encode_ns", "ns", "lower"),
    ("dns-wire.query_encode_allocs", "count", "lower"),
    ("dns-wire.response_encode_ns", "ns", "lower"),
    ("dns-wire.response_encode_allocs", "count", "lower"),
    ("dns-wire.response_decode_ns", "ns", "lower"),
    ("dns-wire.response_decode_allocs", "count", "lower"),
    ("dns-wire.encode_uncompressed_ns", "ns", "lower"),
    ("dns-wire.jsontext_parse_ns_per_kib", "ns/KiB", "lower"),
    ("httpsim.hpack_encode_cold_ns", "ns", "lower"),
    ("httpsim.hpack_encode_cold_allocs", "count", "lower"),
    ("httpsim.hpack_encode_warm_ns", "ns", "lower"),
    ("httpsim.hpack_encode_warm_allocs", "count", "lower"),
    ("httpsim.hpack_decode_warm_ns", "ns", "lower"),
    ("httpsim.hpack_decode_warm_allocs", "count", "lower"),
    ("httpsim.hpack_warm_block_bytes", "count", "lower"),
    ("httpsim.h2_frame_encode_ns", "ns", "lower"),
    ("httpsim.h2_frame_encode_allocs", "count", "lower"),
    ("httpsim.h2_frame_decode_ns", "ns", "lower"),
    ("httpsim.h2_frame_decode_allocs", "count", "lower"),
    ("httpsim.h1_encode_ns", "ns", "lower"),
    ("httpsim.h1_encode_allocs", "count", "lower"),
    ("httpsim.h1_parse_ns", "ns", "lower"),
    ("httpsim.h1_parse_allocs", "count", "lower"),
    ("tls-model.seal_small_ns", "ns", "lower"),
    ("tls-model.seal_small_allocs", "count", "lower"),
    ("tls-model.seal_large_ns_per_kib", "ns/KiB", "lower"),
    ("tls-model.deframe_small_ns", "ns", "lower"),
    ("tls-model.deframe_small_allocs", "count", "lower"),
    ("tls-model.handshake_flights_ns", "ns", "lower"),
    ("tls-model.handshake_flights_allocs", "count", "lower"),
    ("netsim.timer_event_ns", "ns", "lower"),
    ("netsim.timer_event_deep_ns", "ns", "lower"),
    ("netsim.udp_roundtrip_ns", "ns", "lower"),
    ("netsim.udp_roundtrip_allocs", "count", "lower"),
    ("netsim.udp_roundtrip_events", "count", "lower"),
    ("netsim.tcp_roundtrip_ns", "ns", "lower"),
    ("netsim.tcp_roundtrip_allocs", "count", "lower"),
    ("netsim.tcp_roundtrip_events", "count", "lower"),
    ("netsim.tcp_vectored_roundtrip_ns", "ns", "lower"),
    ("netsim.tcp_vectored_roundtrip_allocs", "count", "lower"),
    ("netsim.tcp_connect_close_ns", "ns", "lower"),
    ("netsim.tcp_connect_close_allocs", "count", "lower"),
    ("netsim.tcp_bulk_ns_per_segment", "ns", "lower"),
    ("netsim.tcp_bulk_allocs_per_segment", "count", "lower"),
    ("netsim.tcp_lossy_roundtrip_ns", "ns", "lower"),
    ("netsim.tcp_lossy_drops", "count", "lower"),
    ("doh.cache_hit_ns", "ns", "lower"),
    ("doh.cache_hit_allocs", "count", "lower"),
    ("doh.cache_miss_ns", "ns", "lower"),
    ("doh.cache_insert_evict_ns", "ns", "lower"),
    ("doh.cache_insert_evict_allocs", "count", "lower"),
    ("doh.zone_answer_ns", "ns", "lower"),
    ("doh.zone_answer_allocs", "count", "lower"),
    ("workload.zipf_name_ns", "ns", "lower"),
    ("workload.zipf_name_allocs", "count", "lower"),
    ("workload.fleet_schedule_ns_per_query", "ns", "lower"),
    ("workload.site_page_ns", "ns", "lower"),
    ("workload.site_page_allocs", "count", "lower"),
    ("bench.summarize_ns", "ns", "lower"),
    ("anatomy.do53.total_ns", "ns", "lower"),
    ("anatomy.do53.dns-wire_ns", "ns", "lower"),
    ("anatomy.do53.netsim_ns", "ns", "lower"),
    ("anatomy.doh-h2.total_ns", "ns", "lower"),
    ("anatomy.doh-h2.dns-wire_ns", "ns", "lower"),
    ("anatomy.doh-h2.httpsim_ns", "ns", "lower"),
    ("anatomy.doh-h2.tls-model_ns", "ns", "lower"),
    ("anatomy.doh-h2.netsim_ns", "ns", "lower"),
    ("anatomy.doh-h2.allocs", "count", "lower"),
    ("trace_overhead_pct", "%", "lower"),
];

/// Sizes each sample from `--seconds`: 32 timed loops, plus slack for
/// their calibration, counting passes and gauge readings, and the anatomy.
const TIMED_BENCHES: f64 = 44.0;
/// Timed samples per bench.
pub const SAMPLES: usize = 9;
/// Operations in a counting pass (a multiple of every corpus length).
const COUNT_OPS: usize = 512;
/// Payload of the small-message benches: about one DNS message.
const SMALL: usize = 120;
const MSS: usize = 1460;

const RECORDS_STREAM: u64 = 0x1A7E_0002;
const WORKLOAD_STREAM: u64 = 0x1A7E_0003;
const SAMPLES_STREAM: u64 = 0x1A7E_0004;

/// How long each timed sample runs, and the gauge that brackets every
/// bench so its times are reported at nominal machine speed, like the
/// end-to-end ones (see reference.rs).
pub struct Budget {
    sample: Duration,
    gauge: SpeedGauge,
}

impl Budget {
    /// Splits `seconds` of measuring over every bench's samples.
    pub fn from_seconds(seconds: f64) -> Budget {
        Budget {
            sample: Duration::from_secs_f64(seconds / (TIMED_BENCHES * SAMPLES as f64)),
            gauge: SpeedGauge::start(),
        }
    }
}

struct Timing {
    ns: f64,
    allocs: f64,
}

fn count_allocs<S>(ops: usize, setup: &impl Fn() -> S, op: &impl Fn(&mut S)) -> f64 {
    let mut state = setup();
    let before = crate::alloc_count::snapshot().0;
    for _ in 0..ops {
        op(&mut state);
    }
    (crate::alloc_count::snapshot().0 - before) as f64 / ops as f64
}

fn time_ops<S>(state: &mut S, ops: u64, op: &impl Fn(&mut S)) -> Duration {
    let started = Instant::now();
    for _ in 0..ops {
        op(state);
    }
    started.elapsed()
}

/// Times `op` over state from `setup`: two counting passes of `count_ops`
/// operations (which must agree), then `SAMPLES` timed samples, each from
/// fresh state and long enough to fill the budget.
fn measure<S>(
    budget: &mut Budget,
    count_ops: usize,
    setup: impl Fn() -> S,
    op: impl Fn(&mut S),
) -> Timing {
    // One throwaway operation first: lazily built tables are not per-op cost.
    op(&mut setup());
    let allocs = count_allocs(count_ops, &setup, &op);
    assert_eq!(allocs, count_allocs(count_ops, &setup, &op), "allocations per op must repeat");
    // Calibrate: double the batch until it is long enough to extrapolate.
    let mut ops = 1u64;
    let mut state = setup();
    let iters = loop {
        let took = time_ops(&mut state, ops, &op);
        if took >= budget.sample / 8 {
            let scale = budget.sample.as_secs_f64() / took.as_secs_f64();
            break ((ops as f64 * scale).ceil() as u64).max(1);
        }
        ops *= 2;
    };
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut state = setup();
            time_ops(&mut state, iters, &op).as_nanos() as f64 / iters as f64
        })
        .collect();
    Timing { ns: quartiles(&samples).0 * budget.gauge.speed(), allocs }
}

/// Collects metric values by name and counts the correctness checks made
/// while setting benches up.
#[derive(Default)]
pub struct Results {
    values: BTreeMap<&'static str, f64>,
    pub checks: u64,
}

impl Results {
    fn put(&mut self, name: &'static str, value: f64) {
        assert!(self.values.insert(name, value).is_none(), "metric {name} reported twice");
    }

    fn timed(&mut self, ns: &'static str, allocs: &'static str, timing: &Timing) {
        self.put(ns, timing.ns);
        self.put(allocs, timing.allocs);
    }

    fn check(&mut self, ok: bool, what: &str) {
        assert!(ok, "layer check failed: {what}");
        self.checks += 1;
    }

    /// Every metric of [`LAYER_METRICS`], in table order.
    pub fn into_metrics(self) -> Metrics {
        assert_eq!(self.values.len(), LAYER_METRICS.len(), "a metric is missing from the table");
        LAYER_METRICS
            .iter()
            .map(|&(name, unit, _)| {
                let value = *self.values.get(name).unwrap_or_else(|| panic!("{name} not measured"));
                (name.to_string(), value, unit)
            })
            .collect()
    }
}

/// The response corpus: three one-answer compressed responses for every
/// ten-record one (CNAME chain, A/AAAA sets, MX, TXT under one zone).
fn responses(seed: u64) -> Vec<Message> {
    let mut rng = SimRng::new(seed).split(RECORDS_STREAM);
    let names = random_names(&mut SimRng::new(seed).split(NAMES_STREAM), 64);
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let query = Message::query(i as u16, name, RecordType::A);
            if i % 4 != 3 {
                return Message::fixed_a_response(&query, Ipv4Addr::new(192, 0, 2, 7), 300);
            }
            let alias = name.child("cdn").expect("valid label");
            let edge = alias.child("edge").expect("valid label");
            let mut answers = vec![
                Record::new(name.clone(), 300, Rdata::Cname(alias.clone())),
                Record::new(alias, 300, Rdata::Cname(edge.clone())),
            ];
            for _ in 0..4 {
                let addr = Ipv4Addr::from(rng.next_u64() as u32);
                answers.push(Record::new(edge.clone(), 60, Rdata::A(addr)));
            }
            for _ in 0..2 {
                let addr = Ipv6Addr::from(u128::from(rng.next_u64()) << 64 | 1);
                answers.push(Record::new(edge.clone(), 60, Rdata::Aaaa(addr)));
            }
            let exchange = name.child("mail").expect("valid label");
            answers.push(Record::new(name.clone(), 3600, Rdata::Mx { preference: 10, exchange }));
            answers.push(Record::new(name.clone(), 3600, Rdata::Txt(vec![rng.alnum_string(40)])));
            Message::response(&query, Rcode::NoError, answers)
        })
        .collect()
}

/// Cycles through a corpus, one item per operation.
struct Cycle<T> {
    items: Vec<T>,
    next: usize,
}

impl<T> Cycle<T> {
    fn new(items: Vec<T>) -> Cycle<T> {
        Cycle { items, next: 0 }
    }

    fn next(&mut self) -> &T {
        let item = &self.items[self.next % self.items.len()];
        self.next += 1;
        item
    }
}

fn dns_wire(r: &mut Results, b: &mut Budget, seed: u64, fig3_report: &str) {
    let names = random_names(&mut SimRng::new(seed).split(NAMES_STREAM), 64);
    let corpus = responses(seed);
    for message in &corpus {
        // Headers recompute their counts on encode, so compare wire forms.
        let wire = message.encode();
        let back = Message::decode(&wire).map(|m| m.encode());
        r.check(back.as_ref() == Ok(&wire), "dns-wire response round trip");
    }
    let queries = move || {
        Cycle::new(names.iter().map(|n| Message::query(7, n, RecordType::A)).collect::<Vec<_>>())
    };
    let t = measure(b, COUNT_OPS, queries, |c| {
        black_box(c.next().encode());
    });
    r.timed("dns-wire.query_encode_ns", "dns-wire.query_encode_allocs", &t);
    let messages = || Cycle::new(corpus.clone());
    let t = measure(b, COUNT_OPS, messages, |c| {
        black_box(c.next().encode());
    });
    r.timed("dns-wire.response_encode_ns", "dns-wire.response_encode_allocs", &t);
    let t = measure(b, COUNT_OPS, messages, |c| {
        black_box(c.next().encode_uncompressed());
    });
    r.put("dns-wire.encode_uncompressed_ns", t.ns);
    let wires = || Cycle::new(corpus.iter().map(Message::encode).collect::<Vec<_>>());
    let t = measure(b, COUNT_OPS, wires, |c| {
        black_box(Message::decode(c.next()).expect("corpus decodes"));
    });
    r.timed("dns-wire.response_decode_ns", "dns-wire.response_decode_allocs", &t);

    r.check(jsontext::parse(fig3_report).is_ok(), "fig3 report parses");
    let t = measure(
        b,
        8,
        || (),
        |()| {
            black_box(jsontext::parse(black_box(fig3_report)).expect("report parses"));
        },
    );
    r.put("dns-wire.jsontext_parse_ns_per_kib", t.ns / (fig3_report.len() as f64 / 1024.0));
}

fn httpsim(r: &mut Results, b: &mut Budget) {
    let body = vec![0xABu8; 33];
    let headers = doh_request_headers(body.len());

    let t = measure(
        b,
        COUNT_OPS,
        || (),
        |()| {
            black_box(hpack::Encoder::new().encode(black_box(&headers)));
        },
    );
    r.timed("httpsim.hpack_encode_cold_ns", "httpsim.hpack_encode_cold_allocs", &t);
    let warm_encoder = || {
        let mut encoder = hpack::Encoder::new();
        encoder.encode(&headers);
        encoder
    };
    let t = measure(b, COUNT_OPS, warm_encoder, |encoder| {
        black_box(encoder.encode(black_box(&headers)));
    });
    r.timed("httpsim.hpack_encode_warm_ns", "httpsim.hpack_encode_warm_allocs", &t);
    let warm_decoder = || {
        let mut encoder = hpack::Encoder::new();
        let mut decoder = hpack::Decoder::new();
        decoder.decode(&encoder.encode(&headers)).expect("cold block decodes");
        (decoder, encoder.encode(&headers))
    };
    let (mut decoder, warm_block) = warm_decoder();
    r.check(decoder.decode(&warm_block).as_ref() == Ok(&headers), "hpack warm round trip");
    r.put("httpsim.hpack_warm_block_bytes", warm_block.len() as f64);
    let t = measure(b, COUNT_OPS, warm_decoder, |(decoder, block)| {
        black_box(decoder.decode(black_box(block)).expect("warm block decodes"));
    });
    r.timed("httpsim.hpack_decode_warm_ns", "httpsim.hpack_decode_warm_allocs", &t);

    // One message = a HEADERS frame with the warm block + an END_STREAM DATA frame.
    let message_frames = || {
        [
            Frame::Headers { stream_id: 1, block: warm_block.clone(), end_stream: false },
            Frame::Data { stream_id: 1, data: body.clone(), end_stream: true },
        ]
    };
    let t = measure(b, COUNT_OPS, message_frames, |frames| {
        black_box(frames[0].encode());
        black_box(frames[1].encode());
    });
    r.timed("httpsim.h2_frame_encode_ns", "httpsim.h2_frame_encode_allocs", &t);
    const STREAM_MESSAGES: usize = 64;
    let stream: Vec<u8> = (0..STREAM_MESSAGES)
        .flat_map(|_| message_frames().iter().flat_map(Frame::encode).collect::<Vec<u8>>())
        .collect();
    let decode_stream = |decoder: &mut FrameDecoder| {
        let mut frames = 0usize;
        for chunk in stream.chunks(MSS) {
            decoder.push(chunk);
            while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
                black_box(frame);
                frames += 1;
            }
        }
        frames
    };
    r.check(decode_stream(&mut FrameDecoder::new()) == 2 * STREAM_MESSAGES, "h2 frames decode");
    let t = measure(b, 8, FrameDecoder::new, |decoder| {
        black_box(decode_stream(decoder));
    });
    r.put("httpsim.h2_frame_decode_ns", t.ns / STREAM_MESSAGES as f64);
    r.put("httpsim.h2_frame_decode_allocs", t.allocs / STREAM_MESSAGES as f64);

    let request = Request::new(
        "POST",
        "/dns-query",
        owned(&[
            ("host", "dns.example.net"),
            ("accept", "application/dns-message"),
            ("content-type", "application/dns-message"),
        ]),
    )
    .with_body(body.clone());
    let t = measure(
        b,
        COUNT_OPS,
        || (),
        |()| {
            black_box(black_box(&request).encode());
        },
    );
    r.timed("httpsim.h1_encode_ns", "httpsim.h1_encode_allocs", &t);
    let wire = request.encode().concat();
    let mut parser = RequestParser::new();
    parser.push(&wire);
    let parsed = parser.next_request().expect("request parses").expect("request is complete");
    r.check(parsed.body == body && parsed.method == "POST", "h1 round trip");
    let t = measure(b, COUNT_OPS, RequestParser::new, |parser| {
        parser.push(black_box(&wire));
        black_box(parser.next_request().expect("request parses").expect("request is complete"));
    });
    r.timed("httpsim.h1_parse_ns", "httpsim.h1_parse_allocs", &t);
}

fn tls_model(r: &mut Results, b: &mut Budget) {
    let small = vec![0x5Au8; SMALL];
    let large = vec![0x5Au8; 20 * 1024];
    let t = measure(
        b,
        COUNT_OPS,
        || (),
        |()| {
            black_box(seal(black_box(&small)));
        },
    );
    r.timed("tls-model.seal_small_ns", "tls-model.seal_small_allocs", &t);
    let t = measure(
        b,
        COUNT_OPS,
        || (),
        |()| {
            black_box(seal(black_box(&large)));
        },
    );
    r.put("tls-model.seal_large_ns_per_kib", t.ns / 20.0);

    let record = &seal(&small)[0];
    let wire = [&record.header[..], &record.plaintext, &record.tag].concat();
    let mut deframer = Deframer::new();
    deframer.push(&wire);
    r.check(deframer.next_plaintext().as_deref() == Some(&small[..]), "tls deframe round trip");
    let t = measure(b, COUNT_OPS, Deframer::new, |deframer| {
        deframer.push(black_box(&wire));
        black_box(deframer.next_plaintext().expect("one whole record"));
    });
    r.timed("tls-model.deframe_small_ns", "tls-model.deframe_small_allocs", &t);

    let cfg = TlsConfig::for_server("dns.example.net").alpn(ALPN_H2);
    let t = measure(
        b,
        COUNT_OPS,
        || (),
        |()| {
            black_box(handshake_flights(black_box(&cfg)));
        },
    );
    r.timed("tls-model.handshake_flights_ns", "tls-model.handshake_flights_allocs", &t);
}

/// A simulator with one timer outstanding per op, over `depth` far-future
/// timers that never fire while measuring.
fn timer_sim(seed: u64, depth: u64) -> Sim {
    let mut sim = Sim::new(seed);
    let far = SimTime::ZERO + SimDuration::from_secs(86_400);
    for i in 0..depth {
        sim.schedule_app(far + SimDuration::from_nanos(i), i);
    }
    sim
}

fn timer_event(sim: &mut Sim) {
    sim.schedule_app_in(SimDuration::from_micros(1), 1);
    black_box(sim.next_wake().expect("the timer fires"));
}

/// Two UDP sockets exchanging one datagram each way per round trip.
struct UdpPair {
    sim: Sim,
    client: SockId,
    server: SockId,
    server_addr: (HostId, u16),
    wakes: u64,
}

impl UdpPair {
    fn new(seed: u64) -> UdpPair {
        let (mut sim, a, b) = two_hosts(seed, LinkConfig::clean_broadband());
        let server = sim.udp_bind(b, 53);
        let client = sim.udp_bind(a, 0);
        UdpPair { sim, client, server, server_addr: (b, 53), wakes: 0 }
    }

    fn wait(&mut self, sock: SockId) {
        loop {
            self.wakes += 1;
            match self.sim.next_wake().expect("a datagram is in flight") {
                Wake::UdpReadable { sock: s, .. } if s == sock => return,
                _ => {}
            }
        }
    }

    fn roundtrip(&mut self) {
        self.sim.udp_send(self.client, self.server_addr, LayerTag::DnsPayload, vec![0u8; SMALL]);
        self.wait(self.server);
        let (host, port, data) = self.sim.udp_recv(self.server).expect("query queued");
        self.sim.udp_send(self.server, (host, port), LayerTag::DnsPayload, data);
        self.wait(self.client);
        black_box(self.sim.udp_recv(self.client).expect("response queued"));
    }

    /// Packets put on a link plus wakes handed to the application: the
    /// event count visible from outside `Sim` (timers inside it are not).
    fn events(&self) -> u64 {
        self.sim.meter.total().packets + self.wakes
    }
}

/// An established TCP connection between two hosts.
struct TcpPair {
    sim: Sim,
    client: TcpHandle,
    server: TcpHandle,
    wakes: u64,
}

impl TcpPair {
    fn new(seed: u64, link: LinkConfig) -> TcpPair {
        let (sim, client, server) = tcp_pair(seed, link, 853);
        TcpPair { sim, client, server, wakes: 0 }
    }

    /// Runs the simulation until `conn` holds at least `want` bytes, then
    /// returns them.
    fn read(&mut self, conn: TcpHandle, want: usize) -> Vec<u8> {
        let mut got = Vec::new();
        while got.len() < want {
            self.wakes += 1;
            match self.sim.next_wake().expect("bytes are in flight") {
                Wake::TcpReadable { conn: c, .. } if c == conn => {
                    got.extend_from_slice(&self.sim.tcp_recv(conn));
                }
                _ => {}
            }
        }
        got
    }

    fn roundtrip(&mut self, payload: &[u8]) {
        self.sim.tcp_send(self.client, LayerTag::DnsPayload, payload);
        let query = self.read(self.server, payload.len());
        self.sim.tcp_send(self.server, LayerTag::DnsPayload, &query);
        black_box(self.read(self.client, payload.len()));
    }

    /// As `TlsStream` sends one small record: header, two tagged HTTP
    /// parts, tag — one vectored write each way.
    fn roundtrip_vectored(&mut self, payload: &[u8]) {
        let (head, tail) = payload.split_at(payload.len() / 3);
        let parts = [
            (LayerTag::Tls, &[0x17u8, 3, 3, 0, 0][..]),
            (LayerTag::HttpHeader, head),
            (LayerTag::HttpBody, tail),
            (LayerTag::Tls, &[0u8; 16][..]),
        ];
        let total = payload.len() + 21;
        self.sim.tcp_send_vectored(self.client, &parts);
        black_box(self.read(self.server, total));
        self.sim.tcp_send_vectored(self.server, &parts);
        black_box(self.read(self.client, total));
    }

    fn events(&self) -> u64 {
        self.sim.meter.total().packets + self.wakes
    }
}

/// Connects, closes both directions and drains, on a simulator replaced
/// every 64 connections (the sweeps open at most a few dozen per `Sim`).
struct ConnectClose {
    seed: u64,
    sim: Sim,
    hosts: (HostId, HostId),
    opened: usize,
}

impl ConnectClose {
    fn new(seed: u64) -> ConnectClose {
        let (mut sim, a, b) = two_hosts(seed, LinkConfig::clean_broadband());
        sim.tcp_listen(b, 853);
        ConnectClose { seed, sim, hosts: (a, b), opened: 0 }
    }

    fn connect_close(&mut self) {
        if self.opened == 64 {
            *self = ConnectClose::new(self.seed);
        }
        self.opened += 1;
        let client = self.sim.tcp_connect(self.hosts.0, (self.hosts.1, 853));
        let mut server = None;
        while let Some(wake) = self.sim.next_wake() {
            match wake {
                Wake::TcpAccepted { conn, .. } => server = Some(conn),
                Wake::TcpConnected { .. } => self.sim.tcp_close(client),
                Wake::TcpFin { conn, .. } if Some(conn) == server => self.sim.tcp_close(conn),
                _ => {}
            }
        }
        assert!(server.is_some(), "connect_close: the listener never accepted");
    }
}

fn counted<S>(setup: impl Fn() -> S, op: impl Fn(&mut S), probe: impl Fn(&S) -> u64) -> f64 {
    let mut state = setup();
    let before = probe(&state);
    for _ in 0..COUNT_OPS {
        op(&mut state);
    }
    (probe(&state) - before) as f64 / COUNT_OPS as f64
}

fn netsim(r: &mut Results, b: &mut Budget, seed: u64) {
    let t = measure(b, COUNT_OPS, || timer_sim(seed, 0), timer_event);
    r.put("netsim.timer_event_ns", t.ns);
    let t = measure(b, COUNT_OPS, || timer_sim(seed, 100_000), timer_event);
    r.put("netsim.timer_event_deep_ns", t.ns);

    let t = measure(b, COUNT_OPS, || UdpPair::new(seed), UdpPair::roundtrip);
    r.timed("netsim.udp_roundtrip_ns", "netsim.udp_roundtrip_allocs", &t);
    let events = || counted(|| UdpPair::new(seed), UdpPair::roundtrip, UdpPair::events);
    r.check(events() == events(), "udp events per round trip repeat");
    r.put("netsim.udp_roundtrip_events", events());

    let clean = || TcpPair::new(seed, LinkConfig::clean_broadband());
    let payload = vec![0x42u8; SMALL];
    let t = measure(b, COUNT_OPS, clean, |p| p.roundtrip(&payload));
    r.timed("netsim.tcp_roundtrip_ns", "netsim.tcp_roundtrip_allocs", &t);
    let events = || counted(clean, |p| p.roundtrip(&payload), TcpPair::events);
    r.check(events() == events(), "tcp events per round trip repeat");
    r.put("netsim.tcp_roundtrip_events", events());
    let t = measure(b, COUNT_OPS, clean, |p| p.roundtrip_vectored(&payload));
    r.timed("netsim.tcp_vectored_roundtrip_ns", "netsim.tcp_vectored_roundtrip_allocs", &t);

    let t = measure(b, COUNT_OPS, || ConnectClose::new(seed), ConnectClose::connect_close);
    r.timed("netsim.tcp_connect_close_ns", "netsim.tcp_connect_close_allocs", &t);

    let bulk = vec![0x42u8; 1 << 20];
    let segments = bulk.len().div_ceil(MSS) as f64;
    let t = measure(b, 4, clean, |p| {
        p.sim.tcp_send(p.client, LayerTag::HttpBody, &bulk);
        black_box(p.read(p.server, bulk.len()));
    });
    r.put("netsim.tcp_bulk_ns_per_segment", t.ns / segments);
    r.put("netsim.tcp_bulk_allocs_per_segment", t.allocs / segments);

    let lossy =
        || TcpPair::new(seed, LinkConfig::with_rtt(SimDuration::from_millis(20)).loss(0.02));
    let t = measure(b, COUNT_OPS, lossy, |p| p.roundtrip(&payload));
    r.put("netsim.tcp_lossy_roundtrip_ns", t.ns);
    let drops = || counted(lossy, |p| p.roundtrip(&payload), |p| p.sim.dropped_packets());
    r.check(drops() == drops(), "lossy-link drops repeat under one seed");
    r.put("netsim.tcp_lossy_drops", drops() * COUNT_OPS as f64);
}

fn doh(r: &mut Results, b: &mut Budget, seed: u64) {
    const CAPACITY: usize = 1024;
    let mut rng = SimRng::new(seed).split(NAMES_STREAM);
    let cached = random_names(&mut rng, CAPACITY);
    let absent = random_names(&mut rng, 4 * CAPACITY);
    let record =
        |name: &Name| Record::new(name.clone(), 300, Rdata::A(Ipv4Addr::new(192, 0, 2, 7)));
    let full_cache = || {
        let mut cache = DnsCache::new(CAPACITY);
        for name in &cached {
            cache.insert_positive(name.clone(), RecordType::A, vec![record(name)], SimTime::ZERO);
        }
        cache
    };
    let now = SimTime::ZERO + SimDuration::from_secs(1);
    let mut cache = full_cache();
    r.check(cache.get(&cached[0], RecordType::A, now).is_some(), "cache hit");
    r.check(cache.get(&absent[0], RecordType::A, now).is_none(), "cache miss");

    let t = measure(
        b,
        COUNT_OPS,
        || (full_cache(), Cycle::new(cached.clone())),
        |(cache, names)| {
            black_box(cache.get(names.next(), RecordType::A, now).expect("cached"));
        },
    );
    r.timed("doh.cache_hit_ns", "doh.cache_hit_allocs", &t);
    let t = measure(
        b,
        COUNT_OPS,
        || (full_cache(), Cycle::new(absent.clone())),
        |(cache, names)| {
            black_box(cache.get(names.next(), RecordType::A, now));
        },
    );
    r.put("doh.cache_miss_ns", t.ns);
    // The absent pool is four capacities long, so by the time a name
    // comes round again it has been evicted: every insert evicts.
    let t = measure(
        b,
        COUNT_OPS,
        || (full_cache(), Cycle::new(absent.clone())),
        |(cache, names)| {
            let name = names.next();
            cache.insert_positive(name.clone(), RecordType::A, vec![record(name)], now);
        },
    );
    r.timed("doh.cache_insert_evict_ns", "doh.cache_insert_evict_allocs", &t);

    let synth = Zone::synth(zone(), 300, 60);
    let queries = || {
        Cycle::new(cached.iter().map(|n| Message::query(7, n, RecordType::A)).collect::<Vec<_>>())
    };
    r.check(synth.answer(queries().next()).answers.len() == 1, "zone answers one A record");
    let t = measure(b, COUNT_OPS, queries, |q| {
        black_box(synth.answer(q.next()));
    });
    r.timed("doh.zone_answer_ns", "doh.zone_answer_allocs", &t);
}

fn workload(r: &mut Results, b: &mut Budget, seed: u64) {
    let rng = SimRng::new(seed).split(WORKLOAD_STREAM);
    let t = measure(
        b,
        COUNT_OPS,
        || ZipfNames::new(rng.clone(), &zone(), 4000, 1.0),
        |names| {
            black_box(names.next_name());
        },
    );
    r.timed("workload.zipf_name_ns", "workload.zipf_name_allocs", &t);

    // The fleet of `fig_cache_hit_cost`'s widest cell: 1000 clients × 2 queries.
    let (clients, per_client) = (1000, 2);
    let generate = |rng: &mut SimRng| {
        let gap = SimDuration::from_millis(200);
        FleetSchedule::generate(rng, clients, gap, per_client, &zone(), 4000, 1.0)
    };
    r.check(generate(&mut rng.clone()).len() == clients * per_client, "fleet schedule size");
    let t = measure(
        b,
        4,
        || rng.clone(),
        |rng| {
            black_box(generate(rng));
        },
    );
    r.put("workload.fleet_schedule_ns_per_query", t.ns / (clients * per_client) as f64);

    let t = measure(
        b,
        COUNT_OPS,
        || SiteModel::new(&mut rng.clone(), &zone(), 1000, 1.0),
        |model| {
            black_box(model.next_page());
        },
    );
    r.timed("workload.site_page_ns", "workload.site_page_allocs", &t);
}

fn bench_stats(r: &mut Results, b: &mut Budget, seed: u64) {
    let mut rng = SimRng::new(seed).split(SAMPLES_STREAM);
    let samples: Vec<f64> = (0..400).map(|_| rng.lognormal(5.0, 0.5)).collect();
    let summary = dohmark_bench::stats::summarize(&samples);
    r.check(summary.n == 400 && summary.ci95.0 <= summary.mean, "summary brackets the mean");
    let t = measure(
        b,
        16,
        || (),
        |()| {
            black_box(dohmark_bench::stats::summarize(black_box(&samples)));
        },
    );
    r.put("bench.summarize_ns", t.ns);
}

/// Measures both anatomies; returns the spans of their last traced
/// samples as JSON lines.
fn anatomies(r: &mut Results, gauge: &mut SpeedGauge, seed: u64) -> String {
    let do53 = anatomy::measure::<anatomy::Do53>(seed, SAMPLES, gauge);
    let h2 = anatomy::measure::<anatomy::DohH2>(seed, SAMPLES, gauge);
    r.checks += 2; // every resolution asserted its answer
    let layer = |m: &anatomy::Measured, layer: &str| m.layer_ns.get(layer).copied().unwrap_or(0.0);
    r.put("anatomy.do53.total_ns", do53.total_ns);
    r.put("anatomy.do53.dns-wire_ns", layer(&do53, anatomy::DNS));
    r.put("anatomy.do53.netsim_ns", layer(&do53, anatomy::NET));
    r.put("anatomy.doh-h2.total_ns", h2.total_ns);
    r.put("anatomy.doh-h2.dns-wire_ns", layer(&h2, anatomy::DNS));
    r.put("anatomy.doh-h2.httpsim_ns", layer(&h2, anatomy::HTTP));
    r.put("anatomy.doh-h2.tls-model_ns", layer(&h2, anatomy::TLS));
    r.put("anatomy.doh-h2.netsim_ns", layer(&h2, anatomy::NET));
    r.put("anatomy.doh-h2.allocs", h2.allocs);
    let traced = do53.traced_total_ns + h2.traced_total_ns;
    let untraced = do53.total_ns + h2.total_ns;
    r.put("trace_overhead_pct", (traced / untraced - 1.0) * 100.0);
    for (name, m) in [(anatomy::Do53::NAME, &do53), (anatomy::DohH2::NAME, &h2)] {
        println!(
            "anatomy.{name}: total_ns {:.0} = layers + {:.0} ns of the benchmark's own glue; \
             recorded self time came to {:.1} % of total_ns before scaling; traced total {:.0} ns",
            m.total_ns,
            layer(m, anatomy::GLUE),
            100.0 * m.coverage,
            m.traced_total_ns,
        );
    }
    do53.last.to_jsonl(anatomy::Do53::NAME) + &h2.last.to_jsonl(anatomy::DohH2::NAME)
}

/// Runs every layer bench. `fig3_report` is a real fig3 report (the
/// `jsontext` corpus). Returns the metrics and the anatomy spans.
pub fn run(seed: u64, seconds: f64, fig3_report: &str) -> (Results, String) {
    let mut budget = Budget::from_seconds(seconds);
    let mut r = Results::default();
    dns_wire(&mut r, &mut budget, seed, fig3_report);
    httpsim(&mut r, &mut budget);
    tls_model(&mut r, &mut budget);
    netsim(&mut r, &mut budget, seed);
    doh(&mut r, &mut budget, seed);
    workload(&mut r, &mut budget, seed);
    bench_stats(&mut r, &mut budget, seed);
    let spans = anatomies(&mut r, &mut budget.gauge, seed);
    (r, spans)
}
