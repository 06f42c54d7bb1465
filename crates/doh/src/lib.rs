//! Simulated DNS transports — Do53, DoT and DoH over HTTP/1.1 and
//! HTTP/2 — with per-resolution cost attribution.
//!
//! This crate drives `dohmark-netsim` with protocol-faithful DNS message
//! exchanges — every byte the [`CostMeter`](dohmark_netsim::CostMeter)
//! records is a byte the corresponding real transport would put on the
//! wire:
//!
//! * [`do53`] — classic DNS over UDP, the paper's §3 baseline. The client
//!   sends each query from a **fresh ephemeral source port** and matches
//!   responses by transaction id.
//! * [`dot`] — DNS over TLS (RFC 7858): messages carry the RFC 7766
//!   2-byte length prefix and travel inside TLS application-data records
//!   over simulated TCP, with handshake bytes taken from the
//!   `dohmark-tls-model` flight model.
//! * [`doh1`] — DNS over HTTPS on HTTP/1.1: `POST /dns-query` request
//!   text and `200 OK` response text from `dohmark-httpsim::h1`, header
//!   bytes tagged `HttpHeader` and bodies `HttpBody`.
//! * [`doh2`] — DNS over HTTPS on HTTP/2: connection preface, SETTINGS /
//!   WINDOW_UPDATE / GOAWAY management frames (tagged `HttpMgmt`), and
//!   per-query HEADERS + DATA frames with real HPACK header compression —
//!   on a persistent connection the dynamic table shrinks header bytes
//!   after the first query, exactly the effect the paper measures.
//!
//! # The unified transport API: a registry with addressed wake routing
//!
//! Every client implements [`Resolver`] and every server [`Endpoint`], so
//! experiments iterate over [`TransportConfig`]s instead of naming
//! concrete types. Endpoints live in a [`Driver`] registry: each is
//! registered under an [`EndpointId`], the netsim layer stamps every
//! socket/connection/timer the endpoint creates with that id, and the
//! driver routes each wake **only to its owner** — O(1) dispatch that
//! scales from the original echo pair to thousand-client topologies.
//! [`TransportConfig::build_server`] / [`TransportConfig::build_client`]
//! are the factories to register:
//!
//! ```
//! use dohmark_dns_wire::Name;
//! use dohmark_doh::{Driver, ReusePolicy, TransportConfig, TransportKind};
//! use dohmark_netsim::Sim;
//!
//! let mut sim = Sim::new(42);
//! let cfg = TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent);
//! let stub = sim.add_host("stub");
//! let resolver = sim.add_host("resolver");
//! sim.add_link(stub, resolver, cfg.link);
//! let mut driver = Driver::new();
//! let _server = driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
//! let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
//! let name = Name::parse("example.com").unwrap();
//! let response = driver.resolve(&mut sim, client, &name).unwrap();
//! assert_eq!(response.answers.len(), 1);
//! ```
//!
//! [`Driver::resolve`], [`Driver::run_until_quiescent`] and
//! [`Driver::advance_until`] are loops over one primitive,
//! [`Driver::step`], which pops one wake and routes it; a harness with
//! timers of its own (the page-load engine) loops over `step` itself.
//!
//! # One connection skeleton, three framings
//!
//! DoT, DoH/1.1 and DoH/2 share one client and one server state machine
//! ([`stream`]): connect, TLS flights, flush queued queries, deframe,
//! close. Each transport contributes only a [`stream::Framing`] — how a
//! DNS message is laid out inside the TLS byte stream — so every cost
//! difference between them is attributable to that framing.
//!
//! # Servers answer from pluggable backends
//!
//! Every transport server answers from a [`ServerBackend`]: the classic
//! `bind(...)` constructors keep the paper's fixed-echo behaviour
//! ([`Zone::fixed`]), while `bind_with(...)` accepts a synthetic
//! authoritative [`Zone`] or a [`RecursiveResolver`] — a TTL-driven
//! positive/negative cache (RFC 2308) shared by all client sessions of
//! that server, fetching misses from a Do53 upstream and exposing
//! hit/miss counters through the cost meter.
//!
//! # Attribution
//!
//! Each client draws its own DNS transaction ids — 1, 2, … in send order,
//! wrapping past 65 535 back to 1 — and [`Resolver::send_query`] returns
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
//! draws — for persistent ones.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod do53;
pub mod doh1;
pub mod doh2;
pub mod dot;
mod driver;
pub mod resolver;
pub mod stream;
mod transport;
pub mod zone;

pub use cache::DnsCache;
pub use do53::{Do53Client, Do53Server};
pub use doh1::{DohH1Client, DohH1Server};
pub use doh2::{DohH2Client, DohH2Server};
pub use dot::{DotClient, DotServer, ReusePolicy};
pub use driver::{Driver, EndpointId};
pub use resolver::{RecursiveResolver, ServerBackend};
pub use transport::{TransportConfig, TransportKind};
pub use zone::Zone;

use dohmark_dns_wire::{Message, Name};
use dohmark_netsim::{Sim, Wake};

/// A simulation participant that reacts to application-visible wakes.
///
/// The [`Driver`] delivers only wakes whose handle this endpoint owns
/// (sockets, listeners, connections and timers it created), with the
/// endpoint's id installed as the simulator owner for the duration of
/// the call.
pub trait Endpoint {
    /// Reacts to one wake on a handle this endpoint owns.
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake);
}

/// A transport client that can start a resolution, surface its result and
/// tear its connections down — the unified client API every transport
/// (Do53, DoT, DoH-h1, DoH-h2) implements and [`Driver::resolve`] drives.
pub trait Resolver: Endpoint {
    /// Starts an A-record resolution for `name` and returns the
    /// transaction (and attribution) id this client drew for it.
    fn send_query(&mut self, sim: &mut Sim, name: &Name) -> u16;

    /// Removes and returns the response to transaction `id`, if received.
    fn take_response(&mut self, id: u16) -> Option<Message>;

    /// Initiates a graceful teardown of any open transport state (TCP
    /// FIN, HTTP/2 GOAWAY); in-flight wakes still need to be drained with
    /// [`Driver::run_until_quiescent`] afterwards. Default: nothing to
    /// tear down.
    fn close(&mut self, sim: &mut Sim) {
        let _ = sim;
    }
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
