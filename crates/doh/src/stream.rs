//! The one connection skeleton under every TLS-over-TCP transport.
//!
//! DoT, DoH/1.1 and DoH/2 differ in how a DNS message is framed inside
//! the TLS byte stream and in nothing else, so everything that is not
//! framing lives here once: [`StreamClient`] (connect → TLS flights →
//! flush queued queries → deframe → one-shot close or FIN) and
//! [`StreamServer`] (accept → TLS flights → deframe → answer from a
//! [`ServerBackend`], parking queries a recursive backend cannot answer
//! yet). A transport is a [`Framing`]: [`Dot`](crate::dot::Dot),
//! [`Http1`](crate::doh1::Http1) or [`Http2`](crate::doh2::Http2). Any
//! cost difference between two of them is therefore the framing's.

use crate::resolver::ServerBackend;
use crate::{Endpoint, Resolver, ReusePolicy};
use dohmark_dns_wire::{Message, Name, RecordType};
use dohmark_netsim::{HostId, LayerTag, ListenerId, Side, Sim, TcpHandle, Wake};
use dohmark_tls_model::{
    handshake_flights, record_header, Deframer, Flight, TlsConfig, MAX_PLAINTEXT, RECORD_HEADER,
    ZERO_TAG,
};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::net::Ipv4Addr;

/// One write: byte segments sealed together into TLS records, each
/// charged to its own layer — which is how the cost meter can split a
/// DoH message into header, body and TLS framing.
pub type Segments = Vec<(LayerTag, Vec<u8>)>;

/// How one transport frames DNS messages inside the TLS byte stream —
/// everything [`StreamClient`] and [`StreamServer`] do not already do.
pub trait Framing: Debug {
    /// Per-connection codec state of either end: reassembly buffers,
    /// HPACK tables, stream bookkeeping.
    type Conn: Debug;
    /// Where on a connection a response goes: nowhere in particular
    /// (DoT), a position in the request order (h1), a stream id (h2).
    type Slot: Copy + Debug;

    /// Fresh codec state for a connection seen from `side`.
    fn conn(side: Side) -> Self::Conn;

    /// What the client sends once TLS is established, before its first
    /// query; charged to the connection's setup attribution.
    fn preamble(_conn: &mut Self::Conn) -> Option<Segments> {
        None
    }

    /// One query as the client writes it to the server named `authority`
    /// (the HTTP `host` / `:authority`: the client's TLS SNI).
    fn encode_query(conn: &mut Self::Conn, authority: &str, query: &Message) -> Segments;

    /// One response as the server writes it to `slot`.
    fn encode_response(conn: &mut Self::Conn, slot: Self::Slot, response: &Message) -> Segments;

    /// Consumes deframed `plaintext`. Returns the complete DNS messages
    /// with the slot each arrived on, and how many exchanges completed —
    /// rejected ones (a non-200 status) included, so the client's
    /// in-flight count balances. Control traffic the peer is owed at
    /// once (h2 SETTINGS / PING acknowledgements) is pushed to `control`,
    /// one write each, and charged to the setup attribution.
    fn decode(
        conn: &mut Self::Conn,
        plaintext: &[u8],
        control: &mut Vec<Segments>,
    ) -> (Vec<(Self::Slot, Message)>, usize);

    /// The responses that may go out now that `slot`'s is ready, in
    /// order: just that one, unless the framing answers in request order.
    fn release(
        _conn: &mut Self::Conn,
        slot: Self::Slot,
        response: Message,
    ) -> Vec<(Self::Slot, Message)> {
        vec![(slot, response)]
    }

    /// What the client sends before its FIN; charged to the setup
    /// attribution.
    fn goodbye(_conn: &Self::Conn) -> Option<Segments> {
        None
    }
}

/// What every handshake flight is sent from: the byte model's handshake
/// messages are opaque zeros, so no flight needs a buffer of its own.
static ZERO_BLOCK: [u8; 4096] = [0; 4096];

/// One endpoint's view of a TLS connection: drives the
/// `dohmark-tls-model` handshake flights over a simulated TCP
/// connection, then seals and deframes application data as TLS records.
#[derive(Debug)]
pub(crate) struct TlsStream {
    handle: TcpHandle,
    flights: Vec<Flight>,
    /// Index of the next flight not yet fully sent/received.
    next_flight: usize,
    /// Bytes of the currently awaited inbound flight already received.
    flight_rx: usize,
    /// Attribution for connection setup bytes this endpoint sends.
    setup_attr: u32,
    established: bool,
    deframer: Deframer,
}

impl TlsStream {
    pub(crate) fn new(handle: TcpHandle, cfg: &TlsConfig, setup_attr: u32) -> TlsStream {
        TlsStream {
            handle,
            flights: handshake_flights(cfg),
            next_flight: 0,
            flight_rx: 0,
            setup_attr,
            established: false,
            deframer: Deframer::new(),
        }
    }

    /// Drives the handshake with `incoming` stream bytes (possibly empty),
    /// sending our flights when it is our turn; surplus bytes after
    /// establishment flow through the record deframer. Returns the
    /// deframed application plaintext, in order.
    pub(crate) fn advance(&mut self, sim: &mut Sim, mut incoming: &[u8]) -> Vec<u8> {
        while !self.established {
            let Some(flight) = self.flights.get(self.next_flight) else {
                self.established = true;
                break;
            };
            if flight.from_client == (self.handle.side == Side::Client) {
                // Our turn: emit the flight as opaque handshake bytes, in
                // one write so it segments as one.
                sim.set_attr(self.setup_attr);
                let parts: Vec<(LayerTag, &[u8])> = chunk_lens(flight.bytes, ZERO_BLOCK.len())
                    .map(|len| (LayerTag::Tls, &ZERO_BLOCK[..len]))
                    .collect();
                sim.tcp_send_vectored(self.handle, &parts);
                self.next_flight += 1;
            } else {
                let need = flight.bytes - self.flight_rx;
                let take = need.min(incoming.len());
                self.flight_rx += take;
                incoming = &incoming[take..];
                if self.flight_rx == flight.bytes {
                    self.flight_rx = 0;
                    self.next_flight += 1;
                } else {
                    return Vec::new(); // need more bytes
                }
            }
        }
        let mut plaintext = Vec::new();
        self.deframer.deframe_into(incoming, &mut plaintext);
        plaintext
    }

    /// Seals the concatenation of `segments` into TLS records and queues
    /// them as one vectored write under attribution `attr`: the record
    /// header and AEAD tag are charged to [`LayerTag::Tls`], each
    /// segment's bytes to its own tag.
    ///
    /// The bytes on the wire are those of `tls_model::seal` over the
    /// concatenation, but nothing is concatenated: record boundaries follow
    /// from the total length alone, so the write is a list of borrowed
    /// parts — the caller's segments, cut where a record ends, between a
    /// header and a tag per record — and the copy into the TCP send buffer
    /// is the only one a byte makes on this hop.
    pub(crate) fn send_segments(&mut self, sim: &mut Sim, attr: u32, segments: &Segments) {
        let total: usize = segments.iter().map(|(_, bytes)| bytes.len()).sum();
        if total == 0 {
            return;
        }
        sim.set_attr(attr);
        sim.tcp_send_vectored(self.handle, &sealed_parts(segments, &record_headers(total)));
    }
}

/// The lengths `total` bytes are cut into, `max` at a time: all `max` but
/// a shorter last one.
fn chunk_lens(total: usize, max: usize) -> impl Iterator<Item = usize> {
    (0..total).step_by(max).map(move |at| max.min(total - at))
}

/// The header of each record a write of `total` plaintext bytes is cut
/// into: [`MAX_PLAINTEXT`] bytes a record, the last one shorter.
fn record_headers(total: usize) -> Vec<[u8; RECORD_HEADER]> {
    chunk_lens(total, MAX_PLAINTEXT).map(record_header).collect()
}

/// `segments` as one vectored write of sealed records, borrowing every
/// byte: a header from `headers` ([`record_headers`] of the total length)
/// opens each record, [`ZERO_TAG`] closes it, and a segment that runs past
/// a record's end continues in the next.
fn sealed_parts<'a>(
    segments: &'a Segments,
    headers: &'a [[u8; RECORD_HEADER]],
) -> Vec<(LayerTag, &'a [u8])> {
    let mut parts: Vec<(LayerTag, &[u8])> = Vec::with_capacity(segments.len() + 2 * headers.len());
    let total = segments.iter().map(|(_, bytes)| bytes.len()).sum();
    let mut records = chunk_lens(total, MAX_PLAINTEXT).zip(headers);
    // Plaintext bytes the open record still takes.
    let mut room = 0usize;
    for (tag, bytes) in segments {
        let mut rest = bytes.as_slice();
        while !rest.is_empty() {
            if room == 0 {
                let (len, header) = records.next().expect("a header per record");
                parts.push((LayerTag::Tls, header));
                room = len;
            }
            let (now, later) = rest.split_at(rest.len().min(room));
            parts.push((*tag, now));
            rest = later;
            room -= now.len();
            if room == 0 {
                parts.push((LayerTag::Tls, &ZERO_TAG));
            }
        }
    }
    parts
}

/// One end of one connection: the TLS stream plus the framing's codec.
#[derive(Debug)]
struct Conn<F: Framing> {
    tls: TlsStream,
    codec: F::Conn,
}

impl<F: Framing> Conn<F> {
    fn new(handle: TcpHandle, cfg: &TlsConfig, setup_attr: u32) -> Conn<F> {
        Conn { tls: TlsStream::new(handle, cfg, setup_attr), codec: F::conn(handle.side) }
    }

    /// Feeds received stream bytes through TLS and the framing, writing
    /// the control traffic the framing owes the peer; returns what
    /// [`Framing::decode`] did.
    fn receive(&mut self, sim: &mut Sim, data: &[u8]) -> (Vec<(F::Slot, Message)>, usize) {
        let plaintext = self.tls.advance(sim, data);
        let mut control = Vec::new();
        let decoded = F::decode(&mut self.codec, &plaintext, &mut control);
        for segments in &control {
            self.send_setup(sim, segments);
        }
        decoded
    }

    /// Writes `segments` under the connection's setup attribution.
    fn send_setup(&mut self, sim: &mut Sim, segments: &Segments) {
        self.tls.send_segments(sim, self.tls.setup_attr, segments);
    }
}

/// A client resolving names against one server over TLS, framed by `F`.
#[derive(Debug)]
pub struct StreamClient<F: Framing> {
    host: HostId,
    server: (HostId, u16),
    tls_cfg: TlsConfig,
    policy: ReusePolicy,
    /// The transaction id of the latest query (0 before the first).
    last_txn: u16,
    conn: Option<Conn<F>>,
    /// Queries accepted before the connection established.
    queued: Vec<(u16, Name)>,
    /// Queries sent (or queued) whose response has not yet arrived; a
    /// fresh connection closes only once this drains, so pipelining
    /// several queries onto one cold connection loses none of them.
    inflight: usize,
    responses: Vec<Message>,
}

impl<F: Framing> StreamClient<F> {
    /// A client on `host` for `server`, usually `(resolver, 853)` for DoT
    /// and `(resolver, 443)` for DoH, whose HTTP `host` / `:authority` is
    /// `tls_cfg.sni`.
    ///
    /// Under [`ReusePolicy::Persistent`] the TCP+TLS setup bytes are
    /// attributed to id 0; under [`ReusePolicy::Fresh`] each resolution's
    /// setup is attributed to its own transaction id.
    pub fn new(
        host: HostId,
        server: (HostId, u16),
        tls_cfg: TlsConfig,
        policy: ReusePolicy,
    ) -> StreamClient<F> {
        StreamClient {
            host,
            server,
            tls_cfg,
            policy,
            last_txn: 0,
            conn: None,
            queued: Vec::new(),
            inflight: 0,
            responses: Vec::new(),
        }
    }

    /// Whether the client currently holds an established connection.
    pub fn is_connected(&self) -> bool {
        self.conn.as_ref().is_some_and(|c| c.tls.established)
    }

    fn flush(&mut self, sim: &mut Sim) {
        let Some(conn) = self.conn.as_mut() else { return };
        if !conn.tls.established {
            return;
        }
        for (id, name) in self.queued.drain(..) {
            let query = Message::query(id, &name, RecordType::A);
            let segments = F::encode_query(&mut conn.codec, &self.tls_cfg.sni, &query);
            conn.tls.send_segments(sim, u32::from(id), &segments);
        }
    }
}

impl<F: Framing> Resolver for StreamClient<F> {
    /// Queues an A query for `name`, opening a connection if none is
    /// usable. The query is transmitted as soon as the TLS handshake
    /// completes (immediately, when already established). Connection setup
    /// is charged to the query that opened it under [`ReusePolicy::Fresh`]
    /// and to attribution 0 under [`ReusePolicy::Persistent`].
    fn send_query(&mut self, sim: &mut Sim, name: &Name) -> u16 {
        let id = crate::next_txn(&mut self.last_txn);
        debug_assert!(
            !self.queued.iter().any(|q| q.0 == id)
                && !self.responses.iter().any(|m| m.header.id == id),
            "transaction id {id} redrawn while its query is still outstanding"
        );
        let dead = self.conn.as_ref().is_some_and(|c| sim.tcp_has_failed(c.tls.handle));
        if self.conn.is_none() || dead {
            let attr = match self.policy {
                ReusePolicy::Fresh => u32::from(id),
                ReusePolicy::Persistent => 0,
            };
            sim.set_attr(attr);
            let handle = sim.tcp_connect(self.host, self.server);
            self.conn = Some(Conn::new(handle, &self.tls_cfg, attr));
            // Queries in flight on a dead connection are lost for good
            // (no application retries are modelled); the ones still queued
            // were never sent, and go out on the new connection.
            self.inflight = self.queued.len();
        }
        self.queued.push((id, name.clone()));
        self.inflight += 1;
        self.flush(sim);
        id
    }

    fn take_response(&mut self, id: u16) -> Option<Message> {
        let idx = self.responses.iter().position(|m| m.header.id == id)?;
        Some(self.responses.remove(idx))
    }

    /// Graceful teardown of the current connection, if any — the
    /// framing's goodbye (h2: GOAWAY), then the TCP FIN — abandoning
    /// queries that were still queued for it.
    fn close(&mut self, sim: &mut Sim) {
        self.queued.clear();
        self.inflight = 0;
        let Some(mut conn) = self.conn.take() else { return };
        if let Some(goodbye) = F::goodbye(&conn.codec) {
            conn.send_setup(sim, &goodbye);
        }
        sim.tcp_close(conn.tls.handle);
    }
}

impl<F: Framing> Endpoint for StreamClient<F> {
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
        let Some(conn) = self.conn.as_mut() else { return };
        let handle = conn.tls.handle;
        let data = match *wake {
            // TCP is up: kick off the TLS handshake (ClientHello).
            Wake::TcpConnected { conn: h, .. } if h == handle => Vec::new(),
            Wake::TcpReadable { conn: h, .. } if h == handle => sim.tcp_recv(handle),
            Wake::TcpFin { conn: h, .. } if h == handle => {
                // Server closed on us; drop the connection state so the
                // next query reconnects.
                sim.tcp_close(handle);
                self.conn = None;
                return;
            }
            _ => return,
        };
        let was_established = conn.tls.established;
        let (responses, completed) = conn.receive(sim, &data);
        self.inflight = self.inflight.saturating_sub(completed);
        self.responses.extend(responses.into_iter().map(|(_, response)| response));
        if !was_established && conn.tls.established {
            if let Some(preamble) = F::preamble(&mut conn.codec) {
                conn.send_setup(sim, &preamble);
            }
            self.flush(sim);
        }
        if self.inflight == 0 && self.policy == ReusePolicy::Fresh {
            // Cold connections are one-shot: close once every
            // outstanding answer has arrived.
            self.close(sim);
        }
    }
}

/// A server answering over TLS, framed by `F`, from a pluggable
/// [`ServerBackend`] — authoritative zone data or a shared caching
/// recursive resolver.
#[derive(Debug)]
pub struct StreamServer<F: Framing> {
    listener: ListenerId,
    tls_cfg: TlsConfig,
    backend: ServerBackend,
    /// Open connections at [`TcpHandle::index`] of the handle their wakes
    /// name; `None` for an index that is closed or not this server's. The
    /// simulator issues indices densely and never reuses one, so a wake
    /// finds its connection with one bounds-checked index.
    conns: Vec<Option<Conn<F>>>,
    /// Parked queries: waiter token → the connection and slot expecting
    /// the answer, drained in the backend's completion order.
    waiters: BTreeMap<u64, (TcpHandle, F::Slot)>,
    next_waiter: u64,
}

impl<F: Framing> StreamServer<F> {
    /// Listens on `(host, port)` answering every query with one fixed A
    /// record `answer`/`ttl`. The TLS config must match the clients' (both
    /// ends of the byte model derive flight sizes from it).
    pub fn bind(
        sim: &mut Sim,
        host: HostId,
        port: u16,
        tls_cfg: TlsConfig,
        answer: Ipv4Addr,
        ttl: u32,
    ) -> StreamServer<F> {
        StreamServer::bind_with(sim, host, port, tls_cfg, ServerBackend::fixed(answer, ttl))
    }

    /// Listens on `(host, port)` answering from `backend`.
    pub fn bind_with(
        sim: &mut Sim,
        host: HostId,
        port: u16,
        tls_cfg: TlsConfig,
        backend: ServerBackend,
    ) -> StreamServer<F> {
        let listener = sim.tcp_listen(host, port);
        StreamServer {
            listener,
            tls_cfg,
            backend,
            conns: Vec::new(),
            waiters: BTreeMap::new(),
            next_waiter: 1,
        }
    }

    /// Established-and-open connection count (for tests and reports).
    pub fn open_connections(&self) -> usize {
        self.conns.iter().flatten().count()
    }

    /// Writes every response `slot`'s answer releases, each charged to
    /// its own transaction id.
    fn respond(conn: &mut Conn<F>, sim: &mut Sim, slot: F::Slot, response: Message) {
        for (slot, response) in F::release(&mut conn.codec, slot, response) {
            let segments = F::encode_response(&mut conn.codec, slot, &response);
            conn.tls.send_segments(sim, u32::from(response.header.id), &segments);
        }
    }
}

impl<F: Framing> Endpoint for StreamServer<F> {
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
        // Upstream completions first: answers for queries parked by a
        // recursive backend go out on the connection they arrived on
        // (silently dropped if that connection is gone — like a real
        // resolver whose client hung up mid-recursion).
        for (waiter, response) in self.backend.poll(sim, wake) {
            let Some((handle, slot)) = self.waiters.remove(&waiter) else { continue };
            if let Some(Some(conn)) = self.conns.get_mut(handle.index()) {
                Self::respond(conn, sim, slot, response);
            }
        }
        match *wake {
            Wake::TcpAccepted { listener, conn: handle, .. } if listener == self.listener => {
                // Setup bytes we send are charged to whatever attribution
                // the connecting client's setup used (current attr).
                let conn = Conn::new(handle, &self.tls_cfg, sim.attr());
                let index = handle.index();
                if index >= self.conns.len() {
                    self.conns.resize_with(index + 1, || None);
                }
                self.conns[index] = Some(conn);
            }
            Wake::TcpReadable { conn: handle, .. } if handle.side == Side::Server => {
                let Some(Some(conn)) = self.conns.get_mut(handle.index()) else { return };
                let data = sim.tcp_recv(handle);
                let (queries, _) = conn.receive(sim, &data);
                for (slot, query) in queries {
                    let waiter = self.next_waiter;
                    self.next_waiter += 1;
                    match self.backend.answer(sim, &query, waiter) {
                        Some(response) => Self::respond(conn, sim, slot, response),
                        None => {
                            self.waiters.insert(waiter, (handle, slot));
                        }
                    }
                }
            }
            Wake::TcpFin { conn: handle, .. }
                if handle.side == Side::Server
                    && self.conns.get_mut(handle.index()).and_then(Option::take).is_some() =>
            {
                sim.tcp_close(handle);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TransportConfig, TransportKind};
    use dohmark_netsim::SimRng;
    use dohmark_tls_model::seal;

    /// Nothing bounds how long an answer may go untaken, so a wrapped
    /// counter could hand out the id of a query still outstanding.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "transaction id 1 redrawn")]
    fn redrawing_the_id_of_a_queued_query_is_caught() {
        let mut sim = Sim::new(1);
        let (stub, resolver) = (sim.add_host("stub"), sim.add_host("resolver"));
        // No link: query 1 stays queued behind a connection that never opens.
        let tls = TlsConfig::for_server("dns.example.net");
        let mut client = crate::DotClient::new(stub, (resolver, 853), tls, ReusePolicy::Persistent);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        client.send_query(&mut sim, &name);
        client.last_txn = 65_535;
        client.send_query(&mut sim, &name);
    }

    /// Clients of one server, every wake handed to every endpoint (each
    /// ignores handles not its own), run to quiescence at each step.
    struct Bed<F: Framing> {
        sim: Sim,
        server: StreamServer<F>,
        clients: Vec<StreamClient<F>>,
        /// The server-side handle of every accepted connection, in order.
        accepted: Vec<TcpHandle>,
    }

    impl<F: Framing> Bed<F> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the test bed drives raw server connections, not Driver endpoints"
        )]
        fn pump(&mut self) {
            while let Some(wake) = self.sim.next_wake() {
                if let Wake::TcpAccepted { conn, .. } = wake {
                    self.accepted.push(conn);
                }
                for client in &mut self.clients {
                    client.on_wake(&mut self.sim, &wake);
                }
                self.server.on_wake(&mut self.sim, &wake);
            }
        }

        /// One query from each client in `who`; every one must be answered.
        fn resolve(&mut self, who: &[usize]) {
            let name = Name::parse("abcdefgh.dohmark.test").unwrap();
            let ids: Vec<u16> =
                who.iter().map(|&c| self.clients[c].send_query(&mut self.sim, &name)).collect();
            self.pump();
            for (&c, id) in who.iter().zip(ids) {
                assert!(self.clients[c].take_response(id).is_some(), "client {c} query {id}");
            }
        }
    }

    /// The server's table is indexed by connection, so closing connections
    /// out of index order, reconnecting past the end, and a FIN naming a
    /// freed slot must all leave `open_connections()` exact.
    #[test]
    fn connections_closed_out_of_order_keep_the_table_exact() {
        type NewClient<F> = fn(HostId, (HostId, u16), TlsConfig, ReusePolicy) -> StreamClient<F>;
        fn run<F: Framing>(kind: TransportKind, new_client: NewClient<F>) {
            let cfg = TransportConfig::new(kind, ReusePolicy::Persistent);
            let tls = cfg.tls().expect("a stream transport");
            let mut sim = Sim::new(11);
            let resolver = sim.add_host("resolver");
            let (answer, ttl) = (TransportConfig::ANSWER, TransportConfig::TTL);
            let server =
                StreamServer::bind(&mut sim, resolver, kind.port(), tls.clone(), answer, ttl);
            let clients = (0..3)
                .map(|i| {
                    let stub = sim.add_host(&format!("stub{i}"));
                    sim.add_link(stub, resolver, cfg.link);
                    new_client(stub, (resolver, kind.port()), tls.clone(), ReusePolicy::Persistent)
                })
                .collect();
            let mut bed = Bed { sim, server, clients, accepted: Vec::new() };
            bed.resolve(&[0, 1, 2]);
            assert_eq!(bed.server.open_connections(), 3, "{kind:?}");
            // Close in reverse order of index.
            for open in (0..3).rev() {
                bed.clients[open].close(&mut bed.sim);
                bed.pump();
                assert_eq!(bed.server.open_connections(), open, "{kind:?}: closed {open}");
            }
            bed.resolve(&[1]);
            assert_eq!(bed.server.open_connections(), 1, "{kind:?}: client 1 reconnected");
            let indices: Vec<usize> = bed.accepted.iter().map(|h| h.index()).collect();
            assert_eq!(indices, [0, 1, 2, 3], "{kind:?}");
            // A late FIN for a slot the server already freed is ignored.
            let stale = Wake::TcpFin { conn: bed.accepted[1] };
            bed.server.on_wake(&mut bed.sim, &stale);
            assert_eq!(bed.server.open_connections(), 1, "{kind:?}: stale FIN");
            bed.resolve(&[1]);
            assert_eq!(bed.server.open_connections(), 1, "{kind:?}");
        }
        run(TransportKind::Dot, crate::DotClient::new);
        run(TransportKind::DohH1, crate::DohH1Client::new);
        run(TransportKind::DohH2, crate::DohH2Client::new);
    }

    /// The copy-free framing against the reference: same bytes, and every
    /// byte under the tag its segment carried.
    #[test]
    fn sealed_parts_are_the_reference_seal_of_the_concatenation() {
        const TAGS: [LayerTag; 3] = [LayerTag::HttpHeader, LayerTag::HttpBody, LayerTag::HttpMgmt];
        for seed in 1..=60u64 {
            let mut rng = SimRng::new(seed);
            let segments: Segments = (0..rng.below(6))
                .map(|_| {
                    let len = match rng.below(8) {
                        0 => 0,
                        1 => MAX_PLAINTEXT,
                        2 => rng.below(3 * MAX_PLAINTEXT as u64) as usize,
                        _ => rng.below(200) as usize,
                    };
                    let bytes = (0..len).map(|_| rng.next_u64() as u8).collect();
                    (TAGS[rng.below(3) as usize], bytes)
                })
                .collect();
            let plaintext: Vec<u8> = segments.iter().flat_map(|(_, b)| b.clone()).collect();
            let mut reference = Vec::new();
            for record in seal(&plaintext) {
                reference.extend_from_slice(&record.header);
                reference.extend_from_slice(&record.plaintext);
                reference.extend_from_slice(&record.tag);
            }
            let headers = record_headers(plaintext.len());
            let parts = sealed_parts(&segments, &headers);
            let wire: Vec<u8> = parts.iter().flat_map(|(_, bytes)| bytes.iter().copied()).collect();
            assert_eq!(wire, reference, "seed {seed}");
            assert!(parts.iter().all(|(_, bytes)| !bytes.is_empty()), "seed {seed}");
            for tag in TAGS {
                let written: usize =
                    segments.iter().filter(|s| s.0 == tag).map(|s| s.1.len()).sum();
                let sent: usize = parts.iter().filter(|p| p.0 == tag).map(|p| p.1.len()).sum();
                assert_eq!(sent, written, "seed {seed}: {tag:?}");
            }
        }
    }
}
