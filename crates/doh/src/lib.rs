//! Simulated DNS transports — Do53, DoT and DoH over HTTP/1.1 and
//! HTTP/2 — with per-resolution cost attribution.
//!
//! The public surface is a transport matrix and a driver: a
//! [`TransportConfig`] names one cell ([`TransportKind`] × [`ReusePolicy`]
//! × TLS resumption, plus the link), and the [`Driver`] builds that cell's
//! server ([`Driver::serve`]) and clients ([`Driver::connect`]) under
//! [`EndpointId`]s and routes every wake to its owner. A server answers
//! from a [`ServerBackend`]: the fixed echo record
//! ([`ServerBackend::echo`]), a synthetic authoritative [`Zone`], or a
//! caching recursive resolver whose [`DnsCache`] is shared by all of that
//! server's clients. The per-transport clients and servers are private:
//! experiments iterate over configs, never over concrete types.
//!
//! Every byte the [`CostMeter`](dohmark_netsim::CostMeter) records is a
//! byte the real transport would put on the wire:
//!
//! * Do53 — classic DNS over UDP, the paper's §3 baseline. The client
//!   sends each query from a **fresh ephemeral source port**, matches
//!   responses by transaction id, and resends an unanswered query on
//!   TCP's RTO schedule (RFC 1035 §4.2.1).
//! * DoT — DNS over TLS (RFC 7858): messages carry the RFC 7766 2-byte
//!   length prefix and travel inside TLS application-data records over
//!   simulated TCP, with handshake bytes taken from the
//!   `dohmark-tls-model` flight model.
//! * DoH/1.1 — `POST /dns-query` request text and `200 OK` response text
//!   from `dohmark-httpsim::h1`, header bytes tagged `HttpHeader` and
//!   bodies `HttpBody`.
//! * DoH/2 — connection preface, SETTINGS / WINDOW_UPDATE / GOAWAY
//!   management frames (tagged `HttpMgmt`), and per-query HEADERS + DATA
//!   frames with real HPACK header compression — on a persistent
//!   connection the dynamic table shrinks header bytes after the first
//!   query, exactly the effect the paper measures.
//!
//! DoT, DoH/1.1 and DoH/2 share one client and one server state machine —
//! connect, TLS flights, flush queued queries, deframe, close — and differ
//! only in how a DNS message is framed inside the TLS byte stream, so
//! every cost difference between them is attributable to that framing.
//!
//! # Serving and connecting a cell
//!
//! The [`Driver`] builds every endpoint itself, each under a new
//! [`EndpointId`]: the netsim layer stamps every socket, connection and
//! timer the endpoint creates with that id, and the driver routes each
//! wake **only to its owner** — O(1) dispatch that scales from one
//! stub/resolver pair to thousand-client topologies. A caller names a
//! cell, hosts and a backend, never an endpoint:
//!
//! ```
//! use dohmark_dns_wire::Name;
//! use dohmark_doh::{Driver, ReusePolicy, ServerBackend, TransportConfig, TransportKind};
//! use dohmark_netsim::Sim;
//!
//! let mut sim = Sim::new(42);
//! let cfg = TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent);
//! let stub = sim.add_host("stub");
//! let resolver = sim.add_host("resolver");
//! sim.add_link(stub, resolver, cfg.link);
//! let mut driver = Driver::new();
//! driver.serve(&mut sim, &cfg, resolver, ServerBackend::echo());
//! let client = driver.connect(&mut sim, &cfg, stub, resolver);
//! let name = Name::parse("example.com").unwrap();
//! let response = driver.resolve(&mut sim, client, &name).unwrap();
//! assert_eq!(response.answers.len(), 1);
//! ```
//!
//! A recursive server is two `serve` calls: a Do53 server for the
//! upstream's [`Zone`], then the cell's server with
//! [`ServerBackend::Recursive`] naming that upstream host.
//!
//! [`Driver::resolve`], [`Driver::run_until_quiescent`] and
//! [`Driver::advance_until`] are loops over one primitive,
//! [`Driver::step`], which pops one wake and routes it; a harness with
//! timers of its own (the page-load engine) loops over `step` itself.
//!
//! # Surface
//!
//! Everything public: [`TransportConfig`], [`TransportKind`] and
//! [`ReusePolicy`] name a cell; [`Driver`] and [`EndpointId`] serve,
//! connect, resolve, step and close it; [`ServerBackend`] says what a
//! server answers from; [`Zone`] and [`DnsCache`], also reachable through
//! the [`zone`] and [`cache`] modules, are the answer data and the
//! resolver's cache.
//!
//! # Attribution
//!
//! Each client draws its own DNS transaction ids — 1, 2, … in send order,
//! wrapping past 65 535 back to 1 — and [`Driver::send_query`] returns
//! the one it drew. That id doubles as the simulator attribution id:
//! clients call [`Sim::set_attr`](dohmark_netsim::Sim::set_attr) before
//! writing query bytes and servers set it from the decoded query id before
//! answering, so the meter splits cost per resolution. An id is unique per
//! client, not per run: with one client the meter reads per resolution,
//! while in a fleet every client's first query is metered under id 1 (the
//! fleet experiments read only totals and the meter's counters). Connection
//! setup (TCP handshake + TLS flights + HTTP/2 preface and SETTINGS) is
//! charged to the id current when the connection was opened: the
//! resolution's own id for fresh connections, id 0 — which no query ever
//! draws — for persistent ones. A recursive resolver's upstream exchange is
//! metered under the id its own upstream Do53 client drew, in both
//! directions, not under the id of the stub query that missed the cache.
//!
//! Two kinds of bytes carry no id of their own and take whichever id any
//! endpoint set last. A TCP segment without data (most often a pure ACK)
//! is charged to the simulator's current attribution when it is emitted,
//! and a stream server charges its setup flights to the attribution
//! current when its `TcpAccepted` wake arrives. So a delayed ACK for
//! resolution r that fires after resolution r + 1 has set its id is
//! charged to r + 1, and in a fleet another client's id can take it.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod cache;
mod do53;
mod doh1;
mod doh2;
mod dot;
mod driver;
mod resolver;
mod stream;
mod transport;
pub mod zone;

pub use cache::DnsCache;
pub use driver::{Driver, EndpointId};
pub use resolver::ServerBackend;
pub use transport::{ReusePolicy, TransportConfig, TransportKind};
pub use zone::Zone;

use dohmark_dns_wire::{Message, Name};
use dohmark_netsim::{Sim, Wake};

/// A simulation participant that reacts to application-visible wakes.
///
/// The [`Driver`] delivers only wakes whose handle this endpoint owns
/// (sockets, listeners, connections and timers it created), with the
/// endpoint's id installed as the simulator owner for the duration of
/// the call.
pub(crate) trait Endpoint {
    /// Reacts to one wake on a handle this endpoint owns.
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake);
}

/// A transport client that can start a resolution, surface its result and
/// tear its connections down — the unified client API every transport
/// (Do53, DoT, DoH-h1, DoH-h2) implements and [`Driver::resolve`] drives.
pub(crate) trait Resolver: Endpoint {
    /// Starts an A-record resolution for `name` and returns the
    /// transaction (and attribution) id this client drew for it.
    fn send_query(&mut self, sim: &mut Sim, name: &Name) -> u16;

    /// Removes and returns the response to transaction `id`, if received.
    fn take_response(&mut self, id: u16) -> Option<Message>;

    /// Initiates a graceful teardown of any open transport state (TCP
    /// FIN, HTTP/2 GOAWAY); in-flight wakes still need to be drained with
    /// [`Driver::run_until_quiescent`] afterwards.
    fn close(&mut self, sim: &mut Sim);
}

/// Advances a client's transaction-id counter and returns the new id:
/// 1, 2, …, 65 535, 1, … — never 0, the attribution persistent-connection
/// setup is charged to.
pub(crate) fn next_txn(last: &mut u16) -> u16 {
    *last = last.checked_add(1).unwrap_or(1);
    *last
}

/// The two-endpoint pump of the in-crate unit tests, which drive concrete
/// client/server pairs to inspect state (`is_connected()`,
/// `open_connections()`) a boxed [`Driver`] slot hides.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// Sends `query` (if any) from `client`, then hands every wake to
    /// `client` and `server` until the response arrives — or, without a
    /// query or an answer, until the simulation runs dry.
    #[expect(
        clippy::disallowed_methods,
        reason = "a two-endpoint unit-test pump, with no Driver to route through"
    )]
    pub(crate) fn pump(
        sim: &mut Sim,
        client: &mut dyn Resolver,
        server: &mut dyn Endpoint,
        query: Option<&Name>,
    ) -> Option<Message> {
        let id = query.map(|name| client.send_query(sim, name));
        loop {
            if let Some(response) = id.and_then(|id| client.take_response(id)) {
                return Some(response);
            }
            let wake = sim.next_wake()?;
            client.on_wake(sim, &wake);
            server.on_wake(sim, &wake);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn transaction_ids_wrap_past_65535_to_1_and_are_never_0() {
        let mut last = 0;
        assert_eq!(super::next_txn(&mut last), 1);
        last = 65_533;
        let drawn: Vec<u16> = (0..4).map(|_| super::next_txn(&mut last)).collect();
        assert_eq!(drawn, [65_534, 65_535, 1, 2]);
    }
}
