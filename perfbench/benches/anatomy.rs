//! Anatomy of one warm persistent resolution, performed step by step by
//! the benchmark itself over a raw `Sim` — one span per step, the
//! resolution as parent.
//!
//! The `doh` endpoints and `Driver` are deliberately not called (their
//! signatures are what ROADMAP items 2 and 4 change). What is left is
//! the floor the leaf layers set: `matrix` end to end minus this anatomy
//! is the cost of the `doh` machinery above them. The Do53 side keeps
//! one bound client socket (the real client binds one per query).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use dohmark::dns::{Message, Name, RecordType};
use dohmark::http::h2::{Frame, FrameDecoder};
use dohmark::http::hpack;
use dohmark::netsim::{LayerTag, LinkConfig, Sim, SimRng, SockId, TcpHandle, Wake};
use dohmark::tls::{seal, Deframer};

use crate::corpus::{
    doh_request_headers, doh_response_headers, random_names, tcp_pair, two_hosts, NAMES_STREAM,
};
use crate::record::quartiles;
use crate::reference::SpeedGauge;
use crate::spans::{Recorder, SpanCost};

pub const DNS: &str = "dns-wire";
pub const HTTP: &str = "httpsim";
pub const TLS: &str = "tls-model";
pub const NET: &str = "netsim";
/// The benchmark's own glue between the steps (and the span bookkeeping).
pub const GLUE: &str = "bench";

const ANSWER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 7);
const TTL: u32 = 300;
/// Resolutions per timed sample, and per allocation-count pass.
const RESOLUTIONS: usize = 2000;
/// Upper bound on spans one resolution records (sizes the recorder).
const SPANS_PER_RESOLUTION: usize = 24;

fn names(seed: u64) -> Vec<Name> {
    random_names(&mut SimRng::new(seed).split(NAMES_STREAM), 64)
}

/// A step-by-step transport the anatomy can time.
pub trait Anatomy {
    const NAME: &'static str;
    /// Fresh state with the connection established and one priming
    /// resolution done (so HPACK tables and buffers are warm).
    fn new(seed: u64) -> Self;
    /// One resolution; panics if the answer is not the one expected.
    fn resolve(&mut self, rec: &mut Recorder);
}

/// Do53: encode → `udp_send` → deliver → `udp_recv` → decode, and the
/// server mirror.
pub struct Do53 {
    sim: Sim,
    client: SockId,
    server: SockId,
    server_addr: (dohmark::netsim::HostId, u16),
    names: Vec<Name>,
    next: usize,
}

impl Do53 {
    fn wait_readable(&mut self, sock: SockId) {
        loop {
            match self.sim.next_wake() {
                Some(Wake::UdpReadable { sock: s, .. }) if s == sock => return,
                Some(_) => {}
                None => panic!("do53 anatomy: simulation ran dry"),
            }
        }
    }
}

impl Anatomy for Do53 {
    const NAME: &'static str = "do53";

    fn new(seed: u64) -> Do53 {
        let (mut sim, stub, resolver) = two_hosts(seed, LinkConfig::clean_broadband());
        let server = sim.udp_bind(resolver, 53);
        let client = sim.udp_bind(stub, 0);
        let mut this =
            Do53 { sim, client, server, server_addr: (resolver, 53), names: names(seed), next: 0 };
        this.resolve(&mut Recorder::new(false, 0));
        this
    }

    fn resolve(&mut self, rec: &mut Recorder) {
        rec.next_resolution();
        let root = rec.enter("resolution", GLUE);
        let id = self.next as u16;
        let name = &self.names[self.next % self.names.len()];
        self.next += 1;

        let s = rec.enter("query_encode", DNS);
        let wire = Message::query(id, name, RecordType::A).encode();
        rec.exit(s);
        let s = rec.enter("udp_send", NET);
        self.sim.udp_send(self.client, self.server_addr, LayerTag::DnsPayload, wire);
        rec.exit(s);
        let s = rec.enter("deliver", NET);
        self.wait_readable(self.server);
        rec.exit(s);

        let s = rec.enter("udp_recv", NET);
        let (src_host, src_port, data) = self.sim.udp_recv(self.server).expect("query queued");
        rec.exit(s);
        let s = rec.enter("query_decode", DNS);
        let query = Message::decode(&data).expect("query decodes");
        rec.exit(s);
        let s = rec.enter("response_encode", DNS);
        let wire = Message::fixed_a_response(&query, ANSWER, TTL).encode();
        rec.exit(s);
        let s = rec.enter("udp_send", NET);
        self.sim.udp_send(self.server, (src_host, src_port), LayerTag::DnsPayload, wire);
        rec.exit(s);
        let s = rec.enter("deliver", NET);
        self.wait_readable(self.client);
        rec.exit(s);

        let s = rec.enter("udp_recv", NET);
        let (_, _, data) = self.sim.udp_recv(self.client).expect("response queued");
        rec.exit(s);
        let s = rec.enter("response_decode", DNS);
        let response = Message::decode(&data).expect("response decodes");
        rec.exit(s);
        assert_eq!(response.header.id, id, "do53 anatomy: wrong transaction id");
        assert_eq!(response.answers.len(), 1, "do53 anatomy: one A record expected");
        rec.exit(root);
    }
}

/// One end of the DoH/2 connection: the codecs' per-connection state.
struct H2End {
    handle: TcpHandle,
    encoder: hpack::Encoder,
    decoder: hpack::Decoder,
    frames: FrameDecoder,
    deframer: Deframer,
}

impl H2End {
    fn new(handle: TcpHandle) -> H2End {
        H2End {
            handle,
            encoder: hpack::Encoder::new(),
            decoder: hpack::Decoder::new(),
            frames: FrameDecoder::new(),
            deframer: Deframer::new(),
        }
    }

    /// HPACK → HEADERS + DATA frames → `seal` → `tcp_send_vectored` with
    /// the four tagged parts `TlsStream` sends for a one-record message.
    fn send(
        &mut self,
        sim: &mut Sim,
        rec: &mut Recorder,
        stream_id: u32,
        headers: &[(String, String)],
        body: Vec<u8>,
    ) {
        let s = rec.enter("hpack_encode", HTTP);
        let block = self.encoder.encode(headers);
        rec.exit(s);
        let s = rec.enter("frame_encode", HTTP);
        let headers_frame = Frame::Headers { stream_id, block, end_stream: false }.encode();
        let data_frame = Frame::Data { stream_id, data: body, end_stream: true }.encode();
        rec.exit(s);
        let plaintext = [headers_frame.as_slice(), data_frame.as_slice()].concat();
        let s = rec.enter("seal", TLS);
        let records = seal(&plaintext);
        rec.exit(s);
        let [record] = records.as_slice() else {
            panic!("doh-h2 anatomy: one TLS record expected")
        };
        let s = rec.enter("tcp_send_vectored", NET);
        sim.tcp_send_vectored(
            self.handle,
            &[
                (LayerTag::Tls, &record.header),
                (LayerTag::HttpHeader, &headers_frame),
                (LayerTag::HttpBody, &data_frame),
                (LayerTag::Tls, &record.tag),
            ],
        );
        rec.exit(s);
    }

    /// Drain → `tcp_recv` → `Deframer` → `FrameDecoder` → HPACK →
    /// the DNS message bytes of the one stream that completed.
    fn receive(&mut self, sim: &mut Sim, rec: &mut Recorder) -> (u32, Vec<u8>) {
        let mut block = None;
        let mut body = None;
        // One pass per readable wake; a one-segment message takes one.
        while body.is_none() {
            let s = rec.enter("deliver", NET);
            loop {
                match sim.next_wake() {
                    Some(Wake::TcpReadable { conn, .. }) if conn == self.handle => break,
                    Some(_) => {}
                    None => panic!("doh-h2 anatomy: simulation ran dry"),
                }
            }
            rec.exit(s);
            let s = rec.enter("tcp_recv", NET);
            let data = sim.tcp_recv(self.handle);
            rec.exit(s);
            let s = rec.enter("deframe", TLS);
            self.deframer.push(&data);
            let mut plaintext = Vec::new();
            while let Some(p) = self.deframer.next_plaintext() {
                plaintext.extend_from_slice(&p);
            }
            rec.exit(s);
            let s = rec.enter("frame_decode", HTTP);
            self.frames.push(&plaintext);
            while let Ok(Some(frame)) = self.frames.next_frame() {
                match frame {
                    Frame::Headers { block: b, .. } => block = Some(b),
                    Frame::Data { stream_id, data, end_stream: true } => {
                        body = Some((stream_id, data));
                    }
                    _ => {}
                }
            }
            rec.exit(s);
        }
        let s = rec.enter("hpack_decode", HTTP);
        let headers = self.decoder.decode(&block.expect("a HEADERS frame")).expect("block decodes");
        rec.exit(s);
        assert!(headers.len() >= 4, "doh-h2 anatomy: header list too short");
        body.expect("loop exits once the body arrived")
    }
}

/// DoH over HTTP/2 on an established connection with warm HPACK tables.
pub struct DohH2 {
    sim: Sim,
    client: H2End,
    server: H2End,
    names: Vec<Name>,
    next: usize,
}

impl Anatomy for DohH2 {
    const NAME: &'static str = "doh-h2";

    fn new(seed: u64) -> DohH2 {
        let (sim, client, server) = tcp_pair(seed, LinkConfig::clean_broadband(), 443);
        let mut this = DohH2 {
            sim,
            client: H2End::new(client),
            server: H2End::new(server),
            names: names(seed),
            next: 0,
        };
        this.resolve(&mut Recorder::new(false, 0));
        this
    }

    fn resolve(&mut self, rec: &mut Recorder) {
        rec.next_resolution();
        let root = rec.enter("resolution", GLUE);
        let id = self.next as u16;
        let stream_id = 1 + 2 * (self.next as u32 % 0x3FFF_FFFF);
        let name = &self.names[self.next % self.names.len()];
        self.next += 1;

        let s = rec.enter("query_encode", DNS);
        let wire = Message::query(id, name, RecordType::A).encode();
        rec.exit(s);
        let headers = doh_request_headers(wire.len());
        self.client.send(&mut self.sim, rec, stream_id, &headers, wire);

        let (stream, body) = self.server.receive(&mut self.sim, rec);
        let s = rec.enter("query_decode", DNS);
        let query = Message::decode(&body).expect("query decodes");
        rec.exit(s);
        let s = rec.enter("response_encode", DNS);
        let wire = Message::fixed_a_response(&query, ANSWER, TTL).encode();
        rec.exit(s);
        let headers = doh_response_headers(wire.len());
        self.server.send(&mut self.sim, rec, stream, &headers, wire);

        let (stream, body) = self.client.receive(&mut self.sim, rec);
        let s = rec.enter("response_decode", DNS);
        let response = Message::decode(&body).expect("response decodes");
        rec.exit(s);
        assert_eq!(stream, stream_id, "doh-h2 anatomy: wrong stream");
        assert_eq!(response.header.id, id, "doh-h2 anatomy: wrong transaction id");
        assert_eq!(response.answers.len(), 1, "doh-h2 anatomy: one A record expected");
        rec.exit(root);
    }
}

/// What one anatomy measured, per resolution.
pub struct Measured {
    /// Lower-quartile wall time with span recording off, ns.
    pub total_ns: f64,
    /// The same with recording on.
    pub traced_total_ns: f64,
    /// Where `total_ns` goes: each layer's median share of the recorded
    /// self time (the calibrated cost of recording taken out) times
    /// `total_ns`. The values sum to `total_ns`, `GLUE` included.
    pub layer_ns: BTreeMap<&'static str, f64>,
    /// Recorded self time, recording cost taken out, over `total_ns`: how
    /// well the calibration matched before the shares were scaled.
    pub coverage: f64,
    /// Exact allocations per resolution (recording off).
    pub allocs: f64,
    /// The spans of the last traced sample.
    pub last: Recorder,
}

fn count_allocs<A: Anatomy>(seed: u64) -> f64 {
    let mut state = A::new(seed);
    let mut rec = Recorder::new(false, 0);
    let before = crate::alloc_count::snapshot().0;
    for _ in 0..RESOLUTIONS {
        state.resolve(&mut rec);
    }
    (crate::alloc_count::snapshot().0 - before) as f64 / RESOLUTIONS as f64
}

/// Times `samples` pairs of (recording off, recording on) runs of
/// `RESOLUTIONS` resolutions each, every run from fresh state; times are
/// reported at nominal machine speed over the whole measurement.
pub fn measure<A: Anatomy>(seed: u64, samples: usize, gauge: &mut SpeedGauge) -> Measured {
    let allocs = count_allocs::<A>(seed);
    assert_eq!(
        allocs,
        count_allocs::<A>(seed),
        "{}: allocations per resolution must repeat",
        A::NAME
    );
    let cost = SpanCost::calibrate();
    let per = RESOLUTIONS as f64;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut shares: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut recorded = Vec::new();
    let mut last = Recorder::new(false, 0);
    for _ in 0..samples {
        for traced in [false, true] {
            let mut state = A::new(seed);
            let mut rec = Recorder::new(traced, RESOLUTIONS * SPANS_PER_RESOLUTION);
            let started = Instant::now();
            for _ in 0..RESOLUTIONS {
                state.resolve(&mut rec);
            }
            let ns = started.elapsed().as_nanos() as f64 / per;
            if traced {
                on.push(ns);
                let by_layer = rec.self_time_by_layer(&cost);
                let all: f64 = by_layer.values().sum();
                recorded.push(all / per);
                for (layer, self_ns) in by_layer {
                    shares.entry(layer).or_default().push(self_ns / all);
                }
                last = rec;
            } else {
                off.push(ns);
            }
        }
    }
    let speed = gauge.speed();
    let total_ns = quartiles(&off).0 * speed;
    let medians: Vec<(&'static str, f64)> =
        shares.into_iter().map(|(layer, v)| (layer, quartiles(&v).1)).collect();
    let whole: f64 = medians.iter().map(|(_, share)| share).sum();
    Measured {
        total_ns,
        traced_total_ns: quartiles(&on).0 * speed,
        layer_ns: medians.into_iter().map(|(l, share)| (l, total_ns * share / whole)).collect(),
        coverage: quartiles(&recorded).0 * speed / total_ns,
        allocs,
        last,
    }
}
