//! Classic DNS over UDP (Do53) — the paper's §3 baseline transport.
//!
//! The client binds a **fresh ephemeral source port per query** (as the
//! paper's measurement client does, so OS-level demultiplexing never
//! correlates resolutions) and resends an unanswered query from that port
//! on TCP's RTO schedule; the server answers every well-formed query from
//! its [`ServerBackend`]. Query and response bytes are tagged
//! [`LayerTag::DnsPayload`](dohmark_netsim::LayerTag) and attributed to the
//! DNS transaction id.

use crate::resolver::{Backend, ServerBackend};
use crate::{Endpoint, Resolver};
use dohmark_dns_wire::{Message, Name, RecordType};
use dohmark_netsim::tcp::{backoff, INIT_RTO, MAX_RETRIES};
use dohmark_netsim::{HostId, LayerTag, Sim, SimDuration, SockId, Wake};

/// A Do53 server answering from a pluggable [`ServerBackend`] —
/// authoritative zone data or a shared caching recursive resolver. A
/// query parked on an upstream fetch waits with the `(host, port)` its
/// answer goes back to.
#[derive(Debug)]
pub(crate) struct Do53Server {
    sock: SockId,
    backend: Backend<(HostId, u16)>,
}

impl Do53Server {
    /// Binds the server on `(host, port)` answering from `backend`.
    pub(crate) fn bind(
        sim: &mut Sim,
        host: HostId,
        port: u16,
        backend: ServerBackend,
    ) -> Do53Server {
        Do53Server { sock: sim.udp_bind(host, port), backend: backend.start(host) }
    }

    fn send_response(&mut self, sim: &mut Sim, dst: (HostId, u16), response: &Message) {
        sim.set_attr(u32::from(response.header.id));
        sim.udp_send(self.sock, dst, LayerTag::DnsPayload, response.encode());
    }
}

impl Endpoint for Do53Server {
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
        // Upstream completions first: a recursive backend may have parked
        // queries waiting on the wake we are handling.
        for (src, response) in self.backend.poll(sim, wake) {
            self.send_response(sim, src, &response);
        }
        let Wake::UdpReadable { sock, .. } = wake else { return };
        if *sock != self.sock {
            return;
        }
        while let Some((src_host, src_port, data)) = sim.udp_recv(self.sock) {
            // A datagram that does not parse is dropped, as a real
            // resolver drops it.
            let Ok(query) = Message::decode(&data) else { continue };
            let src = (src_host, src_port);
            if let Some(response) = self.backend.answer(sim, &query, src) {
                self.send_response(sim, src, &response);
            }
        }
    }
}

/// One in-flight Do53 query and its retransmission state.
#[derive(Debug)]
struct PendingQuery {
    /// DNS transaction id (doubles as the attribution id).
    id: u16,
    /// The ephemeral socket the reply arrives on; retransmissions reuse
    /// it, as a real stub resolver resends from the same source port.
    sock: SockId,
    /// The encoded query, kept for retransmission.
    wire: Vec<u8>,
    /// Retransmissions still allowed.
    retries_left: u32,
    /// Timeout armed for the *next* retransmission (doubles each time).
    next_timeout: SimDuration,
}

/// A Do53 client multiplexing queries over fresh ephemeral source ports,
/// retransmitting on TCP's RTO schedule: a stub's Do53 transport, and the
/// upstream of every [`RecursiveResolver`](crate::resolver::RecursiveResolver).
#[derive(Debug)]
pub(crate) struct Do53Client {
    host: HostId,
    server: (HostId, u16),
    /// The transaction id of the latest query (0 before the first).
    last_txn: u16,
    pending: Vec<PendingQuery>,
    responses: Vec<Message>,
}

impl Do53Client {
    /// A client on `host` querying `server`.
    ///
    /// An unanswered query is resent from its own source port, as a stub
    /// resolver does (RFC 1035 §4.2.1), on TCP's RTO schedule: first after
    /// [`INIT_RTO`], then after each [`backoff`] of the timeout, at most
    /// [`MAX_RETRIES`] times. So a lost datagram costs a Do53 resolution
    /// what a lost segment costs a TCP-based one, and lossy-link results
    /// compare transport loss behaviour, not client give-up behaviour. A
    /// query still unanswered when its last resend times out ends there:
    /// it is no longer [pending](Self::is_pending) and its socket closes.
    pub(crate) fn new(host: HostId, server: (HostId, u16)) -> Do53Client {
        Do53Client { host, server, last_txn: 0, pending: Vec::new(), responses: Vec::new() }
    }

    /// Sends a `qtype` query for `name` from a freshly bound ephemeral
    /// port, arms its first retransmission timer and returns the
    /// transaction (and attribution) id it drew.
    pub(crate) fn send(&mut self, sim: &mut Sim, name: &Name, qtype: RecordType) -> u16 {
        let id = crate::next_txn(&mut self.last_txn);
        debug_assert!(
            !self.pending.iter().any(|q| q.id == id)
                && !self.responses.iter().any(|m| m.header.id == id),
            "transaction id {id} redrawn while its query is still outstanding"
        );
        let sock = sim.udp_bind(self.host, 0);
        sim.set_attr(u32::from(id));
        let wire = Message::query(id, name, qtype).encode();
        // The send draws its event `seq` before the timer does.
        sim.udp_send(sock, self.server, LayerTag::DnsPayload, wire.clone());
        crate::driver::schedule_endpoint_timer(sim, INIT_RTO, u64::from(id));
        self.pending.push(PendingQuery {
            id,
            sock,
            wire,
            retries_left: MAX_RETRIES,
            next_timeout: INIT_RTO,
        });
        id
    }

    /// Whether query `id` still waits for its answer: sent, not answered,
    /// and not given up on.
    pub(crate) fn is_pending(&self, id: u16) -> bool {
        self.pending.iter().any(|q| q.id == id)
    }

    /// Handles a retransmission-timer wake. Timers are routed to their
    /// owner, so the token is simply the transaction id it was armed for.
    fn on_retry_timer(&mut self, sim: &mut Sim, token: u64) {
        // A stale timer for an already-answered query finds no pending
        // entry and falls through silently — each fire rearms at most
        // one successor, so chains die with their query.
        let Some(idx) = self.pending.iter().position(|q| u64::from(q.id) == token) else {
            return;
        };
        let q = &mut self.pending[idx];
        if q.retries_left == 0 {
            // The last resend went unanswered too: the query ends here.
            sim.udp_close(q.sock);
            self.pending.remove(idx);
            return;
        }
        q.retries_left -= 1;
        sim.set_attr(u32::from(q.id));
        sim.udp_send(q.sock, self.server, LayerTag::DnsPayload, q.wire.clone());
        q.next_timeout = backoff(q.next_timeout);
        crate::driver::schedule_endpoint_timer(sim, q.next_timeout, token);
    }
}

impl Resolver for Do53Client {
    fn send_query(&mut self, sim: &mut Sim, name: &Name) -> u16 {
        self.send(sim, name, RecordType::A)
    }

    fn take_response(&mut self, id: u16) -> Option<Message> {
        let idx = self.responses.iter().position(|m| m.header.id == id)?;
        Some(self.responses.remove(idx))
    }

    /// Closes the ephemeral sockets of any still-unanswered queries.
    fn close(&mut self, sim: &mut Sim) {
        for q in self.pending.drain(..) {
            sim.udp_close(q.sock);
        }
    }
}

impl Endpoint for Do53Client {
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
        match wake {
            Wake::AppTimer { token, .. } => self.on_retry_timer(sim, *token),
            Wake::UdpReadable { sock, .. } => {
                let Some(idx) = self.pending.iter().position(|q| q.sock == *sock) else {
                    return;
                };
                while let Some((_, _, data)) = sim.udp_recv(*sock) {
                    let Ok(response) = Message::decode(&data) else { continue };
                    if response.header.id == self.pending[idx].id {
                        self.pending.remove(idx);
                        self.responses.push(response);
                        // The query's ephemeral socket has served its
                        // purpose; closing it frees its port.
                        sim.udp_close(*sock);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::pump;
    use dohmark_dns_wire::Rcode;
    use dohmark_netsim::{LinkConfig, SimTime};

    /// The echo Do53 server on `(resolver, 53)`.
    fn echo_server(sim: &mut Sim, resolver: HostId) -> Do53Server {
        Do53Server::bind(sim, resolver, 53, ServerBackend::echo())
    }

    fn setup(seed: u64) -> (Sim, Do53Client, Do53Server) {
        let mut sim = Sim::new(seed);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost());
        let server = echo_server(&mut sim, resolver);
        let client = Do53Client::new(stub, (resolver, 53));
        (sim, client, server)
    }

    #[test]
    fn query_resolves_to_the_fixed_answer() {
        let (mut sim, mut client, mut server) = setup(1);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        let response = pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
        assert_eq!(response.header.id, 1);
        assert_eq!(response.answers.len(), 1);
        assert_eq!(response.answers[0].name, name);
    }

    #[test]
    fn each_resolution_is_two_packets_charged_to_its_id() {
        let (mut sim, mut client, mut server) = setup(2);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        for _ in 0..3 {
            pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
        }
        sim.drain();
        for id in 1..=3u32 {
            let cost = sim.meter.cost(id);
            assert_eq!(cost.packets, 2, "query + response for id {id}");
            // All non-header bytes are raw DNS payload on Do53.
            assert_eq!(
                cost.bytes,
                cost.layers.get(LayerTag::DnsPayload) + cost.layers.get(LayerTag::L4Header)
            );
            assert_eq!(cost.layers.get(LayerTag::L4Header), 2 * 28);
        }
    }

    /// A resolver that never answers: a plain socket on its port keeps
    /// every query that reaches it, for the test to read.
    struct Silent(SockId);

    impl Endpoint for Silent {
        fn on_wake(&mut self, _: &mut Sim, _: &Wake) {}
    }

    /// A clean link to a [`Silent`] resolver on port 53.
    fn silent_setup(seed: u64) -> (Sim, Do53Client, Silent) {
        let mut sim = Sim::new(seed);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost());
        let silent = Silent(sim.udp_bind(resolver, 53));
        (sim, Do53Client::new(stub, (resolver, 53)), silent)
    }

    /// The source port of every query `silent` has received, in order.
    fn source_ports(sim: &mut Sim, silent: &Silent) -> Vec<u16> {
        std::iter::from_fn(|| sim.udp_recv(silent.0)).map(|(_, port, _)| port).collect()
    }

    #[test]
    fn each_query_uses_a_fresh_source_port() {
        let (mut sim, mut client, mut silent) = silent_setup(3);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        assert!(pump(&mut sim, &mut client, &mut silent, Some(&name)).is_none());
        assert!(pump(&mut sim, &mut client, &mut silent, Some(&name)).is_none());
        let mut sources = source_ports(&mut sim, &silent);
        assert_eq!(sources.len(), 2 * (1 + MAX_RETRIES as usize), "each query and its resends");
        sources.dedup();
        assert_eq!(sources.len(), 2, "one source port per query: {sources:?}");
    }

    #[test]
    fn client_closes_its_ephemeral_socket_after_the_response() {
        let (mut sim, mut client, mut server) = setup(5);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        let id = client.send_query(&mut sim, &name);
        let port = sim.udp_local_port(client.pending[0].sock);
        pump(&mut sim, &mut client, &mut server, None);
        assert!(client.take_response(id).is_some());
        let dropped_before = sim.dropped_packets();
        // A stray duplicate response to the query's (now closed) source
        // port must be dropped, not queued on the dead socket.
        let resolver_sock = sim.udp_bind(client.server.0, 0);
        sim.udp_send(resolver_sock, (client.host, port), LayerTag::DnsPayload, vec![0; 12]);
        sim.drain();
        assert_eq!(sim.dropped_packets(), dropped_before + 1);
    }

    /// Datagrams that do not decode are skipped on both sides. The server
    /// answers nothing to garbage and still answers the query behind it.
    /// A client skips garbage and a well-formed response with another id
    /// that reach its pending socket, and still takes its own answer.
    #[test]
    fn undecodable_and_foreign_datagrams_are_skipped() {
        let (mut sim, mut client, mut server) = setup(8);
        let (stub, resolver) = (client.host, client.server.0);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        let garbage = vec![0xFF; 7];
        assert!(Message::decode(&garbage).is_err());

        // Server side: the garbage is delivered, and answered with nothing.
        let stray = sim.udp_bind(stub, 0);
        sim.udp_send(stray, (resolver, 53), LayerTag::DnsPayload, garbage.clone());
        assert!(pump(&mut sim, &mut client, &mut server, None).is_none());
        assert_eq!((sim.meter.total().packets, sim.dropped_packets()), (1, 0));
        assert!(sim.udp_recv(stray).is_none(), "the server answered garbage");
        let response = pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
        assert_eq!(response.answers.len(), 1);

        // Client side: both strays leave the resolver with the query in
        // flight, so they reach the pending socket before the answer does.
        let packets = sim.meter.total().packets;
        let id = client.send_query(&mut sim, &name);
        let port = sim.udp_local_port(client.pending[0].sock);
        let foreign = Message::response(
            &Message::query(id + 1, &name, RecordType::A),
            Rcode::NoError,
            Vec::new(),
        );
        let from = sim.udp_bind(resolver, 0);
        sim.udp_send(from, (stub, port), LayerTag::DnsPayload, garbage);
        sim.udp_send(from, (stub, port), LayerTag::DnsPayload, foreign.encode());
        assert!(pump(&mut sim, &mut client, &mut server, None).is_none());
        assert_eq!(sim.meter.total().packets, packets + 4, "query, strays, answer: no resend");
        assert_eq!(sim.dropped_packets(), 0, "both strays reached the open socket");
        let answer = client.take_response(id).expect("the client took its own answer");
        assert_eq!((answer.header.id, answer.answers.len()), (id, 1));
        assert!(client.take_response(id + 1).is_none(), "the foreign response was skipped");
    }

    #[test]
    fn lost_query_returns_none() {
        let mut sim = Sim::new(4);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost().loss(1.0));
        let mut server = echo_server(&mut sim, resolver);
        let mut client = Do53Client::new(stub, (resolver, 53));
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        assert!(pump(&mut sim, &mut client, &mut server, Some(&name)).is_none());
    }

    /// A lost query stays pending for good, so a wrapped counter could hand
    /// out its id again.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "transaction id 1 redrawn")]
    fn redrawing_the_id_of_a_pending_query_is_caught() {
        let (mut sim, mut client, _server) = setup(9);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        client.send_query(&mut sim, &name);
        client.last_txn = 65_535;
        client.send_query(&mut sim, &name);
    }

    #[test]
    fn retry_recovers_a_lossy_resolution() {
        // At 30% iid loss one datagram exchange fails about half the time;
        // the retransmitting client recovers every one of a batch, because
        // a per-attempt success chance of ~0.49 over 7 transmissions leaves
        // a failure probability under 1%.
        let mut sim = Sim::new(11);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost().loss(0.3));
        let mut server = echo_server(&mut sim, resolver);
        let mut client = Do53Client::new(stub, (resolver, 53));
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        for id in 1..=8u16 {
            let response = pump(&mut sim, &mut client, &mut server, Some(&name));
            assert!(response.is_some(), "id {id} failed despite retries");
        }
    }

    /// Do53 retries on TCP's own schedule. On a dead link a query and a SYN
    /// are each sent `1 + MAX_RETRIES` times, and both run dry at the same
    /// instant: 200 ms · (2⁷ − 1) = 25.4 s. Six doublings never reach the
    /// 60 s cap, so this does not pin it.
    #[test]
    fn retry_gives_up_after_its_budget_on_a_dead_link() {
        let dead_link = || {
            let mut sim = Sim::new(6);
            let stub = sim.add_host("stub");
            let resolver = sim.add_host("resolver");
            sim.add_link(stub, resolver, LinkConfig::localhost().loss(1.0));
            (sim, stub, resolver)
        };
        let (mut sim, stub, resolver) = dead_link();
        let mut server = echo_server(&mut sim, resolver);
        let mut client = Do53Client::new(stub, (resolver, 53));
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        assert!(pump(&mut sim, &mut client, &mut server, Some(&name)).is_none());
        assert!(client.pending.is_empty(), "the query ends when its last resend times out");
        let do53 = (sim.meter.total().packets, sim.dropped_packets(), sim.now());

        let (mut sim, stub, resolver) = dead_link();
        let conn = sim.tcp_connect(stub, (resolver, 853));
        sim.drain();
        assert!(sim.tcp_has_failed(conn));
        let tcp = (sim.meter.total().packets, sim.dropped_packets(), sim.now());

        let sends = 1 + u64::from(MAX_RETRIES);
        assert_eq!(do53, tcp, "(packets, dropped, ran dry at)");
        assert_eq!(do53, (sends, sends, SimTime::ZERO + SimDuration::from_millis(25_400)));
    }

    #[test]
    fn retransmissions_reuse_the_original_source_port() {
        let (mut sim, mut client, mut silent) = silent_setup(7);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        assert!(pump(&mut sim, &mut client, &mut silent, Some(&name)).is_none());
        let sources = source_ports(&mut sim, &silent);
        assert_eq!(sources.len(), 1 + MAX_RETRIES as usize, "original + every retransmission");
        assert!(sources.iter().all(|&port| port == sources[0]), "{sources:?}");
    }
}
