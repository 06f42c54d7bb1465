//! Classic DNS over UDP (Do53) — the paper's §3 baseline transport.
//!
//! The client binds a **fresh ephemeral source port per query** (as the
//! paper's measurement client does, so OS-level demultiplexing never
//! correlates resolutions) and the server answers every well-formed query
//! with a fixed A record, mirroring the paper's controlled resolver.
//! Query and response bytes are tagged
//! [`LayerTag::DnsPayload`](dohmark_netsim::LayerTag) and attributed to the
//! DNS transaction id.

use crate::resolver::ServerBackend;
use crate::{Endpoint, Resolver};
use dohmark_dns_wire::{Message, Name, RecordType};
use dohmark_netsim::tcp::{backoff, INIT_RTO, MAX_RETRIES};
use dohmark_netsim::{HostId, LayerTag, Sim, SimDuration, SockId, Wake};
use std::net::Ipv4Addr;

/// A Do53 server answering from a pluggable [`ServerBackend`] —
/// authoritative zone data or a shared caching recursive resolver.
#[derive(Debug)]
pub struct Do53Server {
    sock: SockId,
    backend: ServerBackend,
}

/// Packs a parked query's return address into a waiter token: Do53 needs
/// no table — the token *is* the `(host, port)` pair.
fn waiter_token(host: HostId, port: u16) -> u64 {
    ((host.0 as u64) << 16) | u64::from(port)
}

fn waiter_addr(token: u64) -> (HostId, u16) {
    (HostId((token >> 16) as usize), (token & 0xFFFF) as u16)
}

impl Do53Server {
    /// Binds the server on `(host, port)` answering every query with one
    /// fixed A record `answer`/`ttl` — the paper's §3 echo resolver.
    pub fn bind(sim: &mut Sim, host: HostId, port: u16, answer: Ipv4Addr, ttl: u32) -> Do53Server {
        Do53Server::bind_with(sim, host, port, ServerBackend::fixed(answer, ttl))
    }

    /// Binds the server on `(host, port)` answering from `backend`.
    pub fn bind_with(sim: &mut Sim, host: HostId, port: u16, backend: ServerBackend) -> Do53Server {
        let sock = sim.udp_bind(host, port);
        Do53Server { sock, backend }
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
        for (waiter, response) in self.backend.poll(sim, wake) {
            self.send_response(sim, waiter_addr(waiter), &response);
        }
        let Wake::UdpReadable { sock, .. } = wake else { return };
        if *sock != self.sock {
            return;
        }
        while let Some((src_host, src_port, data)) = sim.udp_recv(self.sock) {
            // Corrupted datagrams that no longer parse are dropped, exactly
            // like a real resolver would drop them.
            let Ok(query) = Message::decode(&data) else { continue };
            let waiter = waiter_token(src_host, src_port);
            if let Some(response) = self.backend.answer(sim, &query, waiter) {
                self.send_response(sim, (src_host, src_port), &response);
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
    /// The encoded query, kept for retransmission; empty on a client
    /// that never retransmits.
    wire: Vec<u8>,
    /// Retransmissions still allowed.
    retries_left: u32,
    /// Timeout armed for the *next* retransmission (doubles each time).
    next_timeout: SimDuration,
}

/// A Do53 client multiplexing queries over fresh ephemeral source ports,
/// optionally retransmitting on TCP's RTO schedule.
#[derive(Debug)]
pub struct Do53Client {
    host: HostId,
    server: (HostId, u16),
    retry: bool,
    /// The transaction id of the latest query (0 before the first).
    last_txn: u16,
    pending: Vec<PendingQuery>,
    responses: Vec<Message>,
}

impl Do53Client {
    /// A client on `host` querying `server`.
    ///
    /// Without `retry` a lost datagram loses the query: the paper's §3
    /// measurement-client shape. With it, an unanswered query is resent
    /// on TCP's RTO schedule: first after [`INIT_RTO`], then after each
    /// [`backoff`] of the timeout, at most [`MAX_RETRIES`] times. That is
    /// the stub-resolver shape the page-load experiments need on lossy
    /// links, where "a lost query never resolves" would conflate
    /// transport loss behaviour with client give-up behaviour.
    pub fn new(host: HostId, server: (HostId, u16), retry: bool) -> Do53Client {
        Do53Client { host, server, retry, last_txn: 0, pending: Vec::new(), responses: Vec::new() }
    }

    /// Handles a retransmission-timer wake. Timers are routed to their
    /// owner, so the token is simply the transaction id it was armed for.
    fn on_retry_timer(&mut self, sim: &mut Sim, token: u64) {
        // A stale timer for an already-answered query finds no pending
        // entry and falls through silently — each fire rearms at most
        // one successor, so chains die with their query.
        if let Some(q) = self.pending.iter_mut().find(|q| u64::from(q.id) == token) {
            if q.retries_left > 0 {
                q.retries_left -= 1;
                sim.set_attr(u32::from(q.id));
                sim.udp_send(q.sock, self.server, LayerTag::DnsPayload, q.wire.clone());
                q.next_timeout = backoff(q.next_timeout);
                crate::driver::schedule_endpoint_timer(sim, q.next_timeout, token);
            }
        }
    }
}

impl Resolver for Do53Client {
    /// Sends an A query for `name` from a freshly bound ephemeral port,
    /// arming the first retransmission timer when the client retries.
    fn send_query(&mut self, sim: &mut Sim, name: &Name) -> u16 {
        let id = crate::next_txn(&mut self.last_txn);
        debug_assert!(
            !self.pending.iter().any(|q| q.id == id)
                && !self.responses.iter().any(|m| m.header.id == id),
            "transaction id {id} redrawn while its query is still outstanding"
        );
        let sock = sim.udp_bind(self.host, 0);
        sim.set_attr(u32::from(id));
        let query = Message::query(id, name, RecordType::A);
        let wire = query.encode();
        let kept = if self.retry { wire.clone() } else { Vec::new() };
        // The send draws its event `seq` before the timer does.
        sim.udp_send(sock, self.server, LayerTag::DnsPayload, wire);
        let retries_left = if self.retry {
            crate::driver::schedule_endpoint_timer(sim, INIT_RTO, u64::from(id));
            MAX_RETRIES
        } else {
            0
        };
        self.pending.push(PendingQuery {
            id,
            sock,
            wire: kept,
            retries_left,
            next_timeout: INIT_RTO,
        });
        id
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
    use dohmark_netsim::{LinkConfig, SimTime};
    use std::net::Ipv4Addr;

    fn setup(seed: u64) -> (Sim, Do53Client, Do53Server) {
        let mut sim = Sim::new(seed);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost());
        let server = Do53Server::bind(&mut sim, resolver, 53, Ipv4Addr::new(192, 0, 2, 7), 300);
        let client = Do53Client::new(stub, (resolver, 53), false);
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
            assert_eq!(cost.bytes, cost.layers.dns + cost.layers.l4_header);
            assert_eq!(cost.layers.l4_header, 2 * 28);
        }
    }

    /// A resolver that never answers: a plain socket on its port keeps
    /// every query that reaches it, for the test to read.
    struct Silent(SockId);

    impl Endpoint for Silent {
        fn on_wake(&mut self, _: &mut Sim, _: &Wake) {}
    }

    /// A clean link to a [`Silent`] resolver on port 53.
    fn silent_setup(seed: u64, retry: bool) -> (Sim, Do53Client, Silent) {
        let mut sim = Sim::new(seed);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost());
        let silent = Silent(sim.udp_bind(resolver, 53));
        (sim, Do53Client::new(stub, (resolver, 53), retry), silent)
    }

    /// The source port of every query `silent` has received, in order.
    fn source_ports(sim: &mut Sim, silent: &Silent) -> Vec<u16> {
        std::iter::from_fn(|| sim.udp_recv(silent.0)).map(|(_, port, _)| port).collect()
    }

    #[test]
    fn each_query_uses_a_fresh_source_port() {
        let (mut sim, mut client, mut silent) = silent_setup(3, false);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        assert!(pump(&mut sim, &mut client, &mut silent, Some(&name)).is_none());
        assert!(pump(&mut sim, &mut client, &mut silent, Some(&name)).is_none());
        let sources = source_ports(&mut sim, &silent);
        assert_eq!(sources.len(), 2);
        assert_ne!(sources[0], sources[1], "source ports must differ");
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
        let stub = dohmark_netsim::HostId(0);
        let resolver_sock = sim.udp_bind(dohmark_netsim::HostId(1), 0);
        sim.udp_send(resolver_sock, (stub, port), LayerTag::DnsPayload, vec![0; 12]);
        sim.drain();
        assert_eq!(sim.dropped_packets(), dropped_before + 1);
    }

    #[test]
    fn lost_query_returns_none() {
        let mut sim = Sim::new(4);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost().loss(1.0));
        let mut server = Do53Server::bind(&mut sim, resolver, 53, Ipv4Addr::new(192, 0, 2, 7), 60);
        let mut client = Do53Client::new(stub, (resolver, 53), false);
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
        // At 30% iid loss a retry-less stub fails whole resolutions; the
        // retransmitting client recovers every one of a batch, because a
        // per-attempt success chance of ~0.49 over 7 transmissions leaves
        // a failure probability under 1%.
        let mut sim = Sim::new(11);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost().loss(0.3));
        let mut server = Do53Server::bind(&mut sim, resolver, 53, Ipv4Addr::new(192, 0, 2, 7), 60);
        let mut client = Do53Client::new(stub, (resolver, 53), true);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        for id in 1..=8u16 {
            let response = pump(&mut sim, &mut client, &mut server, Some(&name));
            assert!(response.is_some(), "id {id} failed despite retries");
        }
    }

    /// Do53 retries on TCP's own schedule. On a dead link a retrying query
    /// and a SYN are each sent `1 + MAX_RETRIES` times, and both run dry
    /// at the same instant: 200 ms · (2⁷ − 1) = 25.4 s. Six doublings
    /// never reach the 60 s cap, so this does not pin it.
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
        let mut server = Do53Server::bind(&mut sim, resolver, 53, Ipv4Addr::new(192, 0, 2, 7), 60);
        let mut client = Do53Client::new(stub, (resolver, 53), true);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        assert!(pump(&mut sim, &mut client, &mut server, Some(&name)).is_none());
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
        let (mut sim, mut client, mut silent) = silent_setup(7, true);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        assert!(pump(&mut sim, &mut client, &mut silent, Some(&name)).is_none());
        let sources = source_ports(&mut sim, &silent);
        assert_eq!(sources.len(), 1 + MAX_RETRIES as usize, "original + every retransmission");
        assert!(sources.iter().all(|&port| port == sources[0]), "{sources:?}");
    }
}
