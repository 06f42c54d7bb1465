//! DNS over TLS (DoT, RFC 7858) client and server.
//!
//! Wire shape, byte for byte what a real DoT stack produces:
//!
//! * TCP to port 853 (simulated by `netsim::tcp`, so SYN options, ACKs and
//!   retransmissions are all charged).
//! * The TLS handshake flights of the configured
//!   [`TlsConfig`](dohmark_tls_model::TlsConfig), sent as
//!   opaque byte bursts tagged [`LayerTag::Tls`].
//! * Application data framed into TLS records: the 5-byte
//!   record header and
//!   16-byte AEAD tag are tagged `Tls`, the carried plaintext — the
//!   RFC 7766 2-byte length prefix plus the DNS message, which the paper
//!   counts as DNS — is tagged
//!   [`LayerTag::DnsPayload`](dohmark_netsim::LayerTag).
//!
//! The [`ReusePolicy`](crate::ReusePolicy) decides whether each resolution
//! pays the full TCP+TLS setup (`Fresh`, the paper's cold case) or shares
//! one long-lived connection (`Persistent`, which amortises
//! the handshake to near-zero per-resolution overhead).

use crate::stream::{Framing, Segments, StreamClient, StreamServer};
use dohmark_dns_wire::Message;
use dohmark_netsim::{LayerTag, Side};

/// Extracts complete RFC 7766 2-byte-length-prefixed DNS messages from
/// the front of `buf`; undecodable payloads are skipped, exactly like a
/// real resolver drops garbage.
fn drain_prefixed_messages(buf: &mut Vec<u8>) -> Vec<Message> {
    let mut messages = Vec::new();
    while buf.len() >= 2 {
        let len = usize::from(u16::from_be_bytes([buf[0], buf[1]]));
        if buf.len() < 2 + len {
            break;
        }
        if let Ok(msg) = Message::decode(&buf[2..2 + len]) {
            messages.push(msg);
        }
        buf.drain(..2 + len);
    }
    messages
}

/// `message` behind its 2-byte length prefix, all of it tagged
/// `DnsPayload`.
fn prefixed(message: &Message) -> Segments {
    let wire = message.encode();
    let mut plaintext = Vec::with_capacity(2 + wire.len());
    plaintext.extend_from_slice(&(wire.len() as u16).to_be_bytes());
    plaintext.extend_from_slice(&wire);
    vec![(LayerTag::DnsPayload, plaintext)]
}

/// The DoT framing: RFC 7766 length-prefixed DNS messages, nothing else.
/// Its per-connection state is the length-prefix reassembly buffer, and
/// a response goes to the connection as a whole.
#[derive(Debug)]
pub(crate) struct Dot;

impl Framing for Dot {
    type Conn = Vec<u8>;
    type Slot = ();

    fn conn(_side: Side) -> Vec<u8> {
        Vec::new()
    }

    fn encode_query(_rx: &mut Vec<u8>, _authority: &str, query: &Message) -> Segments {
        prefixed(query)
    }

    fn encode_response(_rx: &mut Vec<u8>, _slot: (), response: &Message) -> Segments {
        prefixed(response)
    }

    fn decode(
        rx: &mut Vec<u8>,
        plaintext: &[u8],
        _control: &mut Vec<Segments>,
    ) -> (Vec<((), Message)>, usize) {
        rx.extend_from_slice(plaintext);
        let messages = drain_prefixed_messages(rx);
        let completed = messages.len();
        (messages.into_iter().map(|m| ((), m)).collect(), completed)
    }
}

/// A DoT client resolving names against one server.
pub(crate) type DotClient = StreamClient<Dot>;

/// A DoT server answering from a pluggable
/// [`ServerBackend`](crate::ServerBackend) — authoritative zone data or a
/// shared caching recursive resolver.
pub(crate) type DotServer = StreamServer<Dot>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doh1::{DohH1Client, DohH1Server};
    use crate::doh2::{DohH2Client, DohH2Server};
    use crate::testing::pump;
    use crate::{Resolver, ReusePolicy, ServerBackend};
    use dohmark_dns_wire::{Name, RecordType};
    use dohmark_netsim::{LayerTag, LinkConfig, Sim};
    use dohmark_tls_model::{handshake_bytes, TlsConfig};

    fn dot_tls() -> TlsConfig {
        TlsConfig::for_server("dns.example.net").alpn("dot")
    }

    fn setup(seed: u64, policy: ReusePolicy) -> (Sim, DotClient, DotServer) {
        let mut sim = Sim::new(seed);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost());
        let server = DotServer::bind(&mut sim, resolver, 853, dot_tls(), ServerBackend::echo());
        let client = DotClient::new(stub, (resolver, 853), dot_tls(), policy);
        (sim, client, server)
    }

    /// The connection skeleton is shared, so its behaviours are pinned
    /// here once and run over all three framings: `$body` is expanded for
    /// a DoT, a DoH/1.1 and a DoH/2 client/server pair on a fresh
    /// simulator seeded `$seed`, joined by `$link`, speaking `$tls`. An
    /// optional fifth binding names the `[stub, resolver]` hosts.
    macro_rules! for_each_framing {
        ($seed:expr, $link:expr, $tls:expr, $policy:expr,
         |$sim:ident, $client:ident, $server:ident, $name:ident $(, $hosts:ident)?|
         $body:block) => {{
            let topology = || {
                let mut sim = Sim::new($seed);
                let stub = sim.add_host("stub");
                let resolver = sim.add_host("resolver");
                sim.add_link(stub, resolver, $link);
                (sim, stub, resolver)
            };
            let $name = Name::parse("abcdefgh.dohmark.test").unwrap();
            let tls: TlsConfig = $tls;
            {
                let (mut $sim, stub, resolver) = topology();
                $(let $hosts = [stub, resolver];)?
                let mut $server =
                    DotServer::bind(&mut $sim, resolver, 853, tls.clone(), ServerBackend::echo());
                let mut $client = DotClient::new(stub, (resolver, 853), tls.clone(), $policy);
                $body
            }
            {
                let (mut $sim, stub, resolver) = topology();
                $(let $hosts = [stub, resolver];)?
                let mut $server =
                    DohH1Server::bind(&mut $sim, resolver, 443, tls.clone(), ServerBackend::echo());
                let mut $client = DohH1Client::new(stub, (resolver, 443), tls.clone(), $policy);
                $body
            }
            {
                let (mut $sim, stub, resolver) = topology();
                $(let $hosts = [stub, resolver];)?
                let mut $server =
                    DohH2Server::bind(&mut $sim, resolver, 443, tls.clone(), ServerBackend::echo());
                let mut $client = DohH2Client::new(stub, (resolver, 443), tls.clone(), $policy);
                $body
            }
        }};
    }

    #[test]
    fn cold_resolution_answers_and_charges_the_handshake() {
        let (mut sim, mut client, mut server) = setup(1, ReusePolicy::Fresh);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        let response = pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
        assert_eq!(response.answers[0].name, name);
        sim.drain();
        let cost = sim.meter.cost(1);
        // The resolution paid the whole TLS handshake plus two sealed
        // records (21 B overhead each way).
        let hs = handshake_bytes(&dot_tls()) as u64;
        assert_eq!(cost.layers.get(LayerTag::Tls), hs + 2 * 21);
        // DNS bytes: 2-byte prefix + message, each way.
        let query_len = Message::query(1, &name, RecordType::A).encode().len() as u64;
        let resp_len = response.encode().len() as u64;
        assert_eq!(cost.layers.get(LayerTag::DnsPayload), query_len + resp_len + 4);
    }

    #[test]
    fn a_flight_larger_than_the_zero_block_is_sent_whole() {
        // An 11 kB SNI: the client's first flight is several zero blocks long.
        let tls = TlsConfig { sni: "a".repeat(11_000), ..dot_tls() };
        let mut sim = Sim::new(13);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost());
        let mut server =
            DotServer::bind(&mut sim, resolver, 853, tls.clone(), ServerBackend::echo());
        let mut client = DotClient::new(stub, (resolver, 853), tls.clone(), ReusePolicy::Fresh);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
        sim.drain();
        assert_eq!(
            sim.meter.cost(1).layers.get(LayerTag::Tls),
            handshake_bytes(&tls) as u64 + 2 * 21
        );
    }

    #[test]
    fn fresh_policy_closes_and_reopens_per_query() {
        for_each_framing!(
            2,
            LinkConfig::localhost(),
            dot_tls(),
            ReusePolicy::Fresh,
            |sim, client, server, name| {
                for _ in 0..2 {
                    pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
                    assert!(!client.is_connected(), "cold connection must close");
                }
                pump(&mut sim, &mut client, &mut server, None);
                assert_eq!(server.open_connections(), 0);
                // Both resolutions paid the full handshake independently.
                let hs = handshake_bytes(&dot_tls()) as u64;
                assert!(sim.meter.cost(1).layers.get(LayerTag::Tls) >= hs + 2 * 21);
                assert_eq!(
                    sim.meter.cost(1).layers.get(LayerTag::Tls),
                    sim.meter.cost(2).layers.get(LayerTag::Tls)
                );
            }
        );
    }

    #[test]
    fn persistent_policy_amortises_the_handshake() {
        let (mut sim, mut client, mut server) = setup(3, ReusePolicy::Persistent);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        for _ in 0..5 {
            pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
        }
        assert!(client.is_connected());
        sim.drain();
        let hs = handshake_bytes(&dot_tls()) as u64;
        // Setup lives under the connection attribution…
        assert_eq!(sim.meter.cost(0).layers.get(LayerTag::Tls), hs);
        // …and each resolution pays only per-record framing overhead.
        for id in 1..=5u32 {
            assert_eq!(sim.meter.cost(id).layers.get(LayerTag::Tls), 2 * 21, "id {id}");
        }
    }

    #[test]
    fn fresh_connection_serves_all_pipelined_queries_before_closing() {
        for_each_framing!(
            12,
            LinkConfig::localhost(),
            dot_tls(),
            ReusePolicy::Fresh,
            |sim, client, server, name| {
                // Two queries launched back-to-back share the cold connection;
                // it must not close after the first answer and strand the
                // second.
                client.send_query(&mut sim, &name);
                client.send_query(&mut sim, &name);
                pump(&mut sim, &mut client, &mut server, None);
                assert!(client.take_response(1).is_some());
                assert!(client.take_response(2).is_some());
                assert!(!client.is_connected(), "cold connection closes once drained");
                assert_eq!(server.open_connections(), 0);
            }
        );
    }

    #[test]
    fn a_query_queued_on_a_failed_connection_is_answered_after_the_reconnect() {
        for policy in [ReusePolicy::Fresh, ReusePolicy::Persistent] {
            for_each_framing!(
                14,
                LinkConfig::localhost().loss(1.0),
                dot_tls(),
                policy,
                |sim, client, server, name, hosts| {
                    // Every SYN is lost: query 1 is still queued when its
                    // connection fails.
                    client.send_query(&mut sim, &name);
                    pump(&mut sim, &mut client, &mut server, None);
                    // The link heals; query 2 reconnects and takes query 1
                    // along, and a cold connection must stay open for both
                    // answers.
                    sim.add_link(hosts[0], hosts[1], LinkConfig::localhost());
                    client.send_query(&mut sim, &name);
                    pump(&mut sim, &mut client, &mut server, None);
                    assert!(client.take_response(1).is_some(), "{policy:?}: query 1");
                    assert!(client.take_response(2).is_some(), "{policy:?}: query 2");
                    if policy == ReusePolicy::Fresh {
                        assert!(!client.is_connected(), "cold connection closes once drained");
                        assert_eq!(server.open_connections(), 0);
                    }
                }
            );
        }
    }

    #[test]
    fn close_abandons_queued_queries() {
        for_each_framing!(
            13,
            LinkConfig::localhost(),
            dot_tls(),
            ReusePolicy::Persistent,
            |sim, client, server, name| {
                // Query 1 is still queued (handshake pending) when the
                // client closes; it must not be retransmitted on the next
                // connection.
                client.send_query(&mut sim, &name);
                client.close(&mut sim);
                pump(&mut sim, &mut client, &mut server, None);
                assert!(client.take_response(1).is_none());
                let response = pump(&mut sim, &mut client, &mut server, Some(&name));
                assert!(response.is_some(), "a fresh query after close must work");
                pump(&mut sim, &mut client, &mut server, None);
                assert!(client.take_response(1).is_none(), "stale query 1 must stay abandoned");
            }
        );
    }

    #[test]
    fn explicit_close_tears_the_connection_down() {
        for_each_framing!(
            6,
            LinkConfig::localhost(),
            dot_tls(),
            ReusePolicy::Persistent,
            |sim, client, server, name| {
                pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
                assert!(client.is_connected());
                client.close(&mut sim);
                pump(&mut sim, &mut client, &mut server, None);
                assert!(!client.is_connected());
                assert_eq!(server.open_connections(), 0);
            }
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_dot_costs() {
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

    #[test]
    fn queries_survive_a_lossy_link_via_tcp_retransmission() {
        for_each_framing!(
            11,
            LinkConfig::localhost().loss(0.2),
            dot_tls(),
            ReusePolicy::Persistent,
            |sim, client, server, name| {
                let response = pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
                assert_eq!(response.answers.len(), 1);
                assert!(sim.dropped_packets() > 0, "the link should actually have lost packets");
            }
        );
    }
}
