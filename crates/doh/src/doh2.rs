//! DNS over HTTPS on HTTP/2 (RFC 8484 over RFC 9113), with real HPACK.
//!
//! Wire shape, inside TLS records over simulated TCP:
//!
//! * Connection setup after the TLS handshake: the 24-byte client
//!   preface, a SETTINGS exchange (both directions plus ACKs) and the
//!   client's connection WINDOW_UPDATE — all tagged
//!   [`LayerTag::HttpMgmt`], the paper's "Mgmt" layer that makes a *cold*
//!   DoH/2 resolution the most expensive cell of the transport matrix.
//! * Per query: one HEADERS frame (HPACK-compressed `:method: POST`,
//!   `:path: /dns-query`, `content-type: application/dns-message`, …)
//!   tagged [`LayerTag::HttpHeader`], and one END_STREAM DATA frame with
//!   the raw DNS message tagged [`LayerTag::HttpBody`]; the response
//!   mirrors this with `:status: 200`. Client streams use odd ids 1, 3, 5…
//! * On a persistent connection the HPACK dynamic table turns the second
//!   and later queries' header blocks into a handful of index bytes — the
//!   header-byte shrinkage `examples/transport_shootout.rs` asserts.
//! * Graceful teardown sends GOAWAY (NO_ERROR) before the FIN, as real
//!   clients do; fresh connections do this after every response.
//!
//! Nothing here owns header text or copies a frame: a message's header
//! list is a stack array of `(&str, &str)` that HPACK encodes directly
//! behind the HEADERS frame header, and arriving frames are read where
//! they lie in the [`FrameDecoder`]'s buffer — `:status` through
//! [`hpack::Decoder::decode_with`], the DNS message out of the DATA
//! payload. Only a body split over several DATA frames is reassembled.

use crate::doh1::{DNS_MESSAGE, DOH_PATH};
use crate::stream::{Framing, Segments, StreamClient, StreamServer};
use dohmark_dns_wire::Message;
use dohmark_httpsim::h2::{self, settings, Frame, FrameDecoder, FrameRef, PREFACE};
use dohmark_httpsim::{decimal, hpack};
use dohmark_netsim::{LayerTag, Side};
use std::collections::{BTreeMap, BTreeSet};

/// SETTINGS a browser-like DoH client announces.
const CLIENT_SETTINGS: [(u16, u32); 4] = [
    (settings::HEADER_TABLE_SIZE, hpack::DEFAULT_TABLE_SIZE as u32),
    (settings::ENABLE_PUSH, 0),
    (settings::INITIAL_WINDOW_SIZE, 131_072),
    (settings::MAX_FRAME_SIZE, 16_384),
];

/// The connection-window increment the client grants up front.
const CLIENT_WINDOW_BUMP: u32 = 12_517_377;

/// SETTINGS a resolver-like server announces.
const SERVER_SETTINGS: [(u16, u32); 3] = [
    (settings::HEADER_TABLE_SIZE, hpack::DEFAULT_TABLE_SIZE as u32),
    (settings::MAX_CONCURRENT_STREAMS, 100),
    (settings::INITIAL_WINDOW_SIZE, 65_535),
];

/// Management frames (after `preface`, when the client opens with it)
/// as one write tagged `HttpMgmt`.
fn mgmt(preface: &[u8], frames: &[Frame]) -> Segments {
    let mut bytes = Vec::with_capacity(preface.len() + 40 * frames.len());
    bytes.extend_from_slice(preface);
    for frame in frames {
        frame.encode_into(&mut bytes);
    }
    vec![(LayerTag::HttpMgmt, bytes)]
}

/// The DoH/2 framing: HPACK-compressed HEADERS + DATA per message on
/// its own stream, plus the connection management HTTP/2 adds.
#[derive(Debug)]
pub struct Http2;

/// One end's HTTP/2 connection state.
#[derive(Debug)]
pub struct H2Conn {
    frames: FrameDecoder,
    /// HPACK for header blocks this end sends.
    encoder: hpack::Encoder,
    /// HPACK for header blocks this end receives.
    decoder: hpack::Decoder,
    /// DATA payloads of streams whose body did not end on its first
    /// frame, by stream id.
    bodies: BTreeMap<u32, Vec<u8>>,
    /// Streams whose HEADERS carried a non-200 `:status`; their DATA is
    /// not a DNS answer (mirrors the h1 client's status check).
    failed_streams: BTreeSet<u32>,
    /// Client-preface bytes a server still expects before frames begin.
    preface_left: usize,
    /// Next client-initiated stream id (odd: 1, 3, 5, …).
    next_stream_id: u32,
    /// Whether the client's preface and SETTINGS went out — only then
    /// does the peer know an h2 connection it is owed a GOAWAY on.
    started: bool,
    /// Highest peer stream id seen (for GOAWAY).
    last_peer_stream: u32,
    /// A malformed frame or an undecodable header block arrived: a
    /// connection error (RFC 9113 §4.3, §5.4.1), after which nothing the
    /// peer sends is read.
    broken: bool,
}

impl H2Conn {
    /// One request/response: a HEADERS frame tagged header and an
    /// END_STREAM DATA frame tagged body.
    fn message(&mut self, stream_id: u32, headers: &[(&str, &str)], body: &[u8]) -> Segments {
        // Room for a connection's first block, the one that is all literals.
        let mut headers_frame = Vec::with_capacity(128);
        h2::write_headers(&mut headers_frame, stream_id, false, |block| {
            self.encoder.encode_into(headers, block);
        });
        let mut data_frame = Vec::with_capacity(h2::FRAME_HEADER + body.len());
        h2::write_data(&mut data_frame, stream_id, body, true);
        vec![(LayerTag::HttpHeader, headers_frame), (LayerTag::HttpBody, data_frame)]
    }
}

impl Framing for Http2 {
    type Conn = H2Conn;
    /// The stream the query arrived on.
    type Slot = u32;

    fn conn(side: Side) -> H2Conn {
        H2Conn {
            frames: FrameDecoder::new(),
            encoder: hpack::Encoder::new(),
            decoder: hpack::Decoder::new(),
            bodies: BTreeMap::new(),
            failed_streams: BTreeSet::new(),
            preface_left: if side == Side::Server { PREFACE.len() } else { 0 },
            next_stream_id: 1,
            started: false,
            last_peer_stream: 0,
            broken: false,
        }
    }

    /// The connection preface, SETTINGS and the connection WINDOW_UPDATE.
    fn preamble(conn: &mut H2Conn) -> Option<Segments> {
        conn.started = true;
        Some(mgmt(
            PREFACE,
            &[
                Frame::Settings { params: CLIENT_SETTINGS.to_vec(), ack: false },
                Frame::WindowUpdate { stream_id: 0, increment: CLIENT_WINDOW_BUMP },
            ],
        ))
    }

    fn encode_query(conn: &mut H2Conn, authority: &str, query: &Message) -> Segments {
        let body = query.encode();
        let mut digits = [0; 20];
        let headers = [
            (":method", "POST"),
            (":scheme", "https"),
            (":authority", authority),
            (":path", DOH_PATH),
            ("accept", DNS_MESSAGE),
            ("content-type", DNS_MESSAGE),
            ("content-length", decimal(body.len(), &mut digits)),
        ];
        let stream_id = conn.next_stream_id;
        conn.next_stream_id += 2;
        conn.message(stream_id, &headers, &body)
    }

    fn encode_response(conn: &mut H2Conn, stream_id: u32, response: &Message) -> Segments {
        let body = response.encode();
        let mut digits = [0; 20];
        let headers = [
            (":status", "200"),
            ("content-type", DNS_MESSAGE),
            ("content-length", decimal(body.len(), &mut digits)),
            ("server", "dohmark"),
        ];
        conn.message(stream_id, &headers, &body)
    }

    /// Strips the client preface (announcing the server's SETTINGS once
    /// it has arrived), then feeds the frame decoder, acknowledging
    /// SETTINGS and PING; every END_STREAM counts as completed, rejected
    /// (non-200 / undecodable) streams included. A malformed frame or an
    /// undecodable header block ends the connection: it and everything
    /// after it, on this call and later ones, goes unread.
    fn decode(
        conn: &mut H2Conn,
        plaintext: &[u8],
        control: &mut Vec<Segments>,
    ) -> (Vec<(u32, Message)>, usize) {
        let skip = conn.preface_left.min(plaintext.len());
        conn.preface_left -= skip;
        if skip > 0 && conn.preface_left == 0 {
            let announce = Frame::Settings { params: SERVER_SETTINGS.to_vec(), ack: false };
            control.push(mgmt(&[], &[announce]));
        }
        if conn.broken {
            return (Vec::new(), 0);
        }
        conn.frames.push(&plaintext[skip..]);
        let mut messages = Vec::new();
        let mut completed = 0usize;
        loop {
            let frame = match conn.frames.next_ref() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    conn.broken = true;
                    break;
                }
            };
            match frame {
                FrameRef::Settings { ack: false, .. } => {
                    control.push(mgmt(&[], &[Frame::Settings { params: Vec::new(), ack: true }]));
                }
                FrameRef::Settings { ack: true, .. } => {}
                FrameRef::Headers { stream_id, block, .. } => {
                    conn.last_peer_stream = conn.last_peer_stream.max(stream_id);
                    // A non-200 response is no DNS answer (requests carry
                    // no `:status` and stay accepted). Decoding also keeps
                    // the shared dynamic table in sync — so a block that
                    // does not decode leaves it out of step for good.
                    let mut failed = false;
                    let decoded = conn.decoder.decode_with(block, |name, value| {
                        failed |= name == ":status" && value != "200";
                    });
                    if decoded.is_err() {
                        conn.broken = true;
                        break;
                    }
                    if failed {
                        conn.failed_streams.insert(stream_id);
                    }
                }
                FrameRef::Data { stream_id, data, end_stream } => {
                    conn.last_peer_stream = conn.last_peer_stream.max(stream_id);
                    if !end_stream {
                        conn.bodies.entry(stream_id).or_default().extend_from_slice(data);
                        continue;
                    }
                    completed += 1;
                    // A body that arrived whole is decoded where it lies.
                    let earlier =
                        if conn.bodies.is_empty() { None } else { conn.bodies.remove(&stream_id) };
                    if !conn.failed_streams.is_empty() && conn.failed_streams.remove(&stream_id) {
                        continue;
                    }
                    let decoded = match earlier {
                        Some(mut body) => {
                            body.extend_from_slice(data);
                            Message::decode(&body)
                        }
                        None => Message::decode(data),
                    };
                    if let Ok(msg) = decoded {
                        messages.push((stream_id, msg));
                    }
                }
                FrameRef::Ping { data, ack: false } => {
                    control.push(mgmt(&[], &[Frame::Ping { data, ack: true }]));
                }
                FrameRef::Ping { ack: true, .. }
                | FrameRef::WindowUpdate { .. }
                | FrameRef::Goaway { .. }
                | FrameRef::RstStream { .. }
                | FrameRef::Unknown { .. } => {}
            }
        }
        (messages, completed)
    }

    /// GOAWAY (NO_ERROR) naming the last peer stream, as real clients
    /// send before the FIN.
    fn goodbye(conn: &H2Conn) -> Option<Segments> {
        let last_stream_id = conn.last_peer_stream;
        let goaway = Frame::Goaway { last_stream_id, error_code: 0, debug: Vec::new() };
        conn.started.then(|| mgmt(&[], &[goaway]))
    }
}

/// A DoH client speaking HTTP/2 to one resolver.
pub type DohH2Client = StreamClient<Http2>;

/// A DoH/2 server answering from a pluggable
/// [`ServerBackend`](crate::ServerBackend) — authoritative zone data or a
/// shared caching recursive resolver. Streams multiplex, so — unlike h1 —
/// a stream parked on an upstream fetch never blocks a cache hit on
/// another stream of the same connection.
pub type DohH2Server = StreamServer<Http2>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::TlsStream;
    use crate::testing::pump;
    use crate::{Endpoint, Resolver, ReusePolicy};
    use dohmark_dns_wire::{Name, RecordType};
    use dohmark_netsim::{LinkConfig, Sim, Wake};
    use dohmark_tls_model::{handshake_bytes, TlsConfig, ALPN_H2};
    use std::net::Ipv4Addr;

    fn h2_tls() -> TlsConfig {
        TlsConfig::for_server("dns.example.net").alpn(ALPN_H2)
    }

    fn setup(seed: u64, policy: ReusePolicy) -> (Sim, DohH2Client, DohH2Server) {
        let mut sim = Sim::new(seed);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost());
        let server =
            DohH2Server::bind(&mut sim, resolver, 443, h2_tls(), Ipv4Addr::new(192, 0, 2, 7), 300);
        let client = DohH2Client::new(stub, (resolver, 443), h2_tls(), policy);
        (sim, client, server)
    }

    #[test]
    fn cold_resolution_pays_handshake_mgmt_headers_and_body() {
        let (mut sim, mut client, mut server) = setup(1, ReusePolicy::Fresh);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        let response = pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
        assert_eq!(response.answers[0].name, name);
        pump(&mut sim, &mut client, &mut server, None);
        let cost = sim.meter.cost(1);
        // Preface + SETTINGS both ways + ACKs + WINDOW_UPDATE + GOAWAY.
        assert!(cost.layers.http_mgmt > 100, "mgmt bytes {}", cost.layers.http_mgmt);
        // Bodies: the DNS messages plus one 9-byte DATA frame header each.
        let query_len = Message::query(1, &name, RecordType::A).encode().len() as u64;
        let resp_len = response.encode().len() as u64;
        assert_eq!(cost.layers.http_body, query_len + resp_len + 2 * 9);
        // HPACK-compressed headers beat h1 text but are still present.
        assert!(cost.layers.http_header > 2 * 9, "header bytes {}", cost.layers.http_header);
        assert!(cost.layers.tls >= handshake_bytes(&h2_tls()) as u64);
        assert!(!client.is_connected(), "cold connection must close");
        assert_eq!(server.open_connections(), 0, "server saw the FIN");
    }

    #[test]
    fn persistent_hpack_shrinks_headers_after_the_first_query() {
        let (mut sim, mut client, mut server) = setup(2, ReusePolicy::Persistent);
        let name_gen = |i: u64| Name::parse(&format!("abcdefg{i}.dohmark.test")).unwrap();
        for i in 1..=4u64 {
            pump(&mut sim, &mut client, &mut server, Some(&name_gen(i))).unwrap();
        }
        assert!(client.is_connected());
        sim.drain();
        let first = sim.meter.cost(1).layers.http_header;
        let later: Vec<u64> = (2..=4u32).map(|id| sim.meter.cost(id).layers.http_header).collect();
        // Same-shape queries: every header but none of the values change,
        // so the dynamic table turns later blocks into pure index bytes.
        assert!(later.iter().all(|&l| l < first / 2), "first {first} B vs later {later:?} B");
        assert_eq!(later[0], later[1]);
        assert_eq!(later[1], later[2]);
        // Mgmt is connection setup, charged to the connection attribution.
        assert_eq!(sim.meter.cost(2).layers.http_mgmt, 0);
        assert!(sim.meter.cost(0).layers.http_mgmt > 100);
    }

    #[test]
    fn close_sends_goaway_then_fin() {
        let (mut sim, mut client, mut server) = setup(3, ReusePolicy::Persistent);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
        let mgmt_before = sim.meter.cost(0).layers.http_mgmt;
        client.close(&mut sim);
        pump(&mut sim, &mut client, &mut server, None);
        // GOAWAY: 9-byte frame header + 8-byte payload, plus TLS framing.
        assert_eq!(sim.meter.cost(0).layers.http_mgmt, mgmt_before + 17);
        assert!(!client.is_connected());
        assert_eq!(server.open_connections(), 0);
    }

    #[test]
    fn streams_use_odd_ids_and_parallel_queries_resolve() {
        let (mut sim, mut client, mut server) = setup(4, ReusePolicy::Persistent);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        // Launch three queries back-to-back before any response arrives.
        for _ in 0..3 {
            client.send_query(&mut sim, &name);
        }
        pump(&mut sim, &mut client, &mut server, None);
        for id in 1..=3u16 {
            assert!(client.take_response(id).is_some(), "id {id}");
        }
        // The stream id is the framing's to assign, one per encoded query.
        let mut conn = Http2::conn(Side::Client);
        for id in 1..=3u16 {
            Http2::encode_query(
                &mut conn,
                "dns.example.net",
                &Message::query(id, &name, RecordType::A),
            );
        }
        assert_eq!(conn.next_stream_id, 7, "streams 1, 3, 5 were used");
    }

    /// Sends `queries` queries back to back from a `policy` client to a
    /// hand-rolled server that answers each with whatever `answer` makes
    /// of `(connection, stream id, DNS response bytes)`, and hands the
    /// client back once the simulation is quiet.
    #[expect(
        clippy::disallowed_methods,
        reason = "the hand-rolled h2 server under test is not a Driver endpoint"
    )]
    fn resolve_against(
        policy: ReusePolicy,
        queries: usize,
        mut answer: impl FnMut(&mut H2Conn, u32, &[u8]) -> Segments,
    ) -> DohH2Client {
        let mut sim = Sim::new(21);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost());
        let listener = sim.tcp_listen(resolver, 443);
        let mut client = DohH2Client::new(stub, (resolver, 443), h2_tls(), policy);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        for _ in 0..queries {
            client.send_query(&mut sim, &name);
        }
        let mut server_conn: Option<(TlsStream, H2Conn)> = None;
        while let Some(wake) = sim.next_wake() {
            client.on_wake(&mut sim, &wake);
            match wake {
                Wake::TcpAccepted { listener: l, conn: handle, .. } if l == listener => {
                    let attr = sim.attr();
                    let tls = TlsStream::new(handle, &h2_tls(), attr);
                    server_conn = Some((tls, Http2::conn(Side::Server)));
                }
                Wake::TcpReadable { conn: handle, .. } if handle.side == Side::Server => {
                    let Some((tls, conn)) = server_conn.as_mut() else { continue };
                    let data = sim.tcp_recv(handle);
                    let plaintext = tls.advance(&mut sim, &data);
                    let (queries, _) = Http2::decode(conn, &plaintext, &mut Vec::new());
                    for (stream_id, query) in queries {
                        let body =
                            Message::fixed_a_response(&query, Ipv4Addr::new(192, 0, 2, 7), 60)
                                .encode();
                        let segments = answer(conn, stream_id, &body);
                        tls.send_segments(&mut sim, u32::from(query.header.id), &segments);
                    }
                }
                _ => {}
            }
        }
        client
    }

    #[test]
    fn non_200_responses_are_not_dns_answers() {
        // A server that answers every query with :status 500 and a
        // DNS-shaped body; the client must not surface it (the h1
        // client's explicit status check, mirrored on h2) — but the
        // rejected response still completes the stream, so a Fresh
        // connection must tear down rather than linger.
        let mut client = resolve_against(ReusePolicy::Fresh, 1, |conn, stream_id, body| {
            let headers = [
                (":status", "500"),
                ("content-type", DNS_MESSAGE),
                ("content-length", &body.len().to_string()),
            ];
            conn.message(stream_id, &headers, body)
        });
        assert!(client.take_response(1).is_none(), "a 500 must not count as an answer");
        // The rejected response still drained the in-flight count: the
        // fresh connection was torn down, not left open for reuse.
        assert!(!client.is_connected(), "fresh connection must close after a 500");
    }

    #[test]
    fn an_undecodable_header_block_ends_the_connection() {
        // The first answer's header block names an index outside both
        // tables (`BadIndex`): from there on the client's dynamic table
        // may be out of step with the server's, so neither that stream's
        // DATA nor the well-formed answer behind it is a DNS answer.
        let mut first = true;
        let mut client = resolve_against(ReusePolicy::Persistent, 2, |conn, stream_id, body| {
            if !std::mem::take(&mut first) {
                return conn.message(stream_id, &[(":status", "200")], body);
            }
            let mut headers_frame = Vec::new();
            h2::write_headers(&mut headers_frame, stream_id, false, |block| {
                block.extend_from_slice(&[0xBF, 0x20]);
            });
            let mut data_frame = Vec::new();
            h2::write_data(&mut data_frame, stream_id, body, true);
            vec![(LayerTag::HttpHeader, headers_frame), (LayerTag::HttpBody, data_frame)]
        });
        assert!(client.take_response(1).is_none(), "DATA behind an undecodable block");
        assert!(client.take_response(2).is_none(), "the connection is not read any further");
    }

    #[test]
    fn a_body_split_over_data_frames_is_reassembled() {
        // Each answer's body arrives in two DATA frames, only the second
        // ending the stream: the client buffers the first and decodes the
        // two halves as one message.
        let mut client = resolve_against(ReusePolicy::Persistent, 2, |conn, stream_id, body| {
            let mut headers_frame = Vec::new();
            h2::write_headers(&mut headers_frame, stream_id, false, |block| {
                conn.encoder.encode_into(&[(":status", "200")], block);
            });
            let (head, tail) = body.split_at(body.len() / 2);
            let mut data_frames = Vec::new();
            h2::write_data(&mut data_frames, stream_id, head, false);
            h2::write_data(&mut data_frames, stream_id, tail, true);
            vec![(LayerTag::HttpHeader, headers_frame), (LayerTag::HttpBody, data_frames)]
        });
        for id in 1..=2u16 {
            let response = client.take_response(id).expect("a reassembled answer");
            assert_eq!(response.header.id, id);
            assert_eq!(response.answers.len(), 1, "id {id}");
        }
    }

    #[test]
    fn identical_seeds_reproduce_identical_h2_costs() {
        let run = |seed: u64| {
            let (mut sim, mut client, mut server) = setup(seed, ReusePolicy::Persistent);
            let name = Name::parse("abcdefgh.dohmark.test").unwrap();
            for _ in 0..3 {
                pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
            }
            sim.drain();
            (sim.meter.total(), sim.now())
        };
        assert_eq!(run(7), run(7));
    }
}
