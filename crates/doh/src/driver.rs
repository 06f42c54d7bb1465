//! Addressed wake routing: the [`Driver`] registry that scales topologies
//! from one echo pair to thousands of endpoints.
//!
//! The netsim layer stamps every socket, listener, connection and timer
//! with the **owner id** current at creation time ([`Sim::set_owner`])
//! and returns it alongside each wake ([`Sim::next_wake_owned`]); the
//! `Driver` exploits that to route each wake straight to the one endpoint
//! that owns the underlying handle — O(1) per wake, independent of
//! topology size. [`Driver::step`] is the one place wakes are popped:
//! every loop in this crate, and the page-load engine's, is a loop over
//! it.
//!
//! Endpoints are registered through a closure so that every handle they
//! create during construction (server listeners, resolver upstream
//! sockets) is stamped with their [`EndpointId`]; the driver re-installs
//! the owner before every callback, so handles created *later* (reconnects
//! after a FIN, fresh per-query sockets, accepted server connections via
//! the listener's owner) inherit the right id too.
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
//! let server = driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
//! let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
//! let name = Name::parse("example.com").unwrap();
//! let response = driver.resolve(&mut sim, client, &name).unwrap();
//! assert_eq!(response.header.id, 1, "the client's first transaction id");
//! # let _ = server;
//! ```

use crate::{Endpoint, Resolver};
use dohmark_dns_wire::{Message, Name};
use dohmark_netsim::{Sim, SimDuration, SimTime, Wake};

/// Token [`Driver::advance_until`] reserves for its internal timer;
/// application timers must use other values.
const ADVANCE_TOKEN: u64 = u64::MAX;

/// Arms an application timer on behalf of an endpoint — the blessed wake
/// scheduling path for endpoint re-arm logic (retransmission timeouts,
/// keep-alives). Lives in the driver module so all wake scheduling stays
/// auditable in one place; the timer inherits the owner installed around
/// the calling endpoint's callback, so the [`Driver`] routes the eventual
/// [`Wake::AppTimer`] straight back to that endpoint.
#[expect(
    clippy::disallowed_methods,
    reason = "the blessed wake-scheduling path for endpoints; the timer carries the caller's owner"
)]
pub(crate) fn schedule_endpoint_timer(sim: &mut Sim, delay: SimDuration, token: u64) {
    debug_assert_ne!(token, ADVANCE_TOKEN, "token is reserved for Driver::advance_until");
    sim.schedule_app_in(delay, token);
}

/// Identifier of an endpoint registered with a [`Driver`]. Doubles as the
/// netsim wake-ownership id the endpoint's handles are stamped with; id
/// `0` is reserved for "unowned".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(u64);

/// Registered endpoints keep their concrete capability: plain endpoints
/// only receive wakes, resolvers additionally issue queries.
enum Slot {
    Endpoint(Box<dyn Endpoint>),
    Resolver(Box<dyn Resolver>),
}

impl Slot {
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
        match self {
            Slot::Endpoint(e) => e.on_wake(sim, wake),
            Slot::Resolver(r) => r.on_wake(sim, wake),
        }
    }
}

/// An [`EndpointId`]-keyed endpoint registry with addressed wake dispatch.
///
/// See the crate-level docs for the routing model. All loop methods
/// ([`Driver::resolve`], [`Driver::run_until_quiescent`],
/// [`Driver::advance_until`]) are loops over [`Driver::step`].
#[derive(Default)]
pub struct Driver {
    slots: Vec<Slot>,
    unrouted: u64,
}

impl Driver {
    /// An empty registry.
    pub fn new() -> Driver {
        Driver::default()
    }

    /// Wakes nobody consumed: their owner was unknown to this driver
    /// (owner 0 or an id it never issued) — nonzero values usually mean
    /// an endpoint was built outside [`Driver::register`]. Unowned timers
    /// are not counted: they belong to the harness that armed them and
    /// [`Driver::step`] hands them back.
    pub fn unrouted_wakes(&self) -> u64 {
        self.unrouted
    }

    fn register_slot(&mut self, sim: &mut Sim, build: impl FnOnce(&mut Sim) -> Slot) -> EndpointId {
        let id = EndpointId(self.slots.len() as u64 + 1);
        let prev = sim.owner();
        sim.set_owner(id.0);
        let slot = build(sim);
        sim.set_owner(prev);
        self.slots.push(slot);
        id
    }

    /// Registers an endpoint (typically a server). The `build` closure runs
    /// with the new id installed as the simulator's owner, so every handle
    /// it creates (listeners, sockets) is stamped with it.
    pub fn register(
        &mut self,
        sim: &mut Sim,
        build: impl FnOnce(&mut Sim) -> Box<dyn Endpoint>,
    ) -> EndpointId {
        self.register_slot(sim, |sim| Slot::Endpoint(build(sim)))
    }

    /// [`Driver::register`] for clients, keeping the [`Resolver`] API
    /// ([`Driver::send_query`] / [`Driver::take_response`]) available.
    pub fn register_resolver(
        &mut self,
        sim: &mut Sim,
        build: impl FnOnce(&mut Sim) -> Box<dyn Resolver>,
    ) -> EndpointId {
        self.register_slot(sim, |sim| Slot::Resolver(build(sim)))
    }

    fn slot_mut(&mut self, id: EndpointId) -> &mut Slot {
        &mut self.slots[id.0 as usize - 1]
    }

    fn resolver_mut(&mut self, id: EndpointId) -> &mut dyn Resolver {
        match self.slot_mut(id) {
            Slot::Resolver(r) => r.as_mut(),
            Slot::Endpoint(_) => panic!("endpoint {} is not a resolver", id.0),
        }
    }

    /// Pops the next wake and routes it to the endpoint owning its
    /// handle, installing that endpoint's id as the simulator owner for
    /// the duration of the callback (so reconnects inherit it). Returns
    /// the wake and whether an endpoint received it, or `None` once the
    /// simulation has run dry.
    ///
    /// This is the one place wakes are popped. A harness that arms timers
    /// of its own outside any endpoint callback (the page-load engine's
    /// fetch completions) loops over `step` itself: endpoint timers carry
    /// their endpoint's id, so an [`Wake::AppTimer`] that comes back
    /// unrouted is the harness's.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one place wakes are popped; each is routed to its owner"
    )]
    pub fn step(&mut self, sim: &mut Sim) -> Option<(Wake, bool)> {
        let (wake, owner) = sim.next_wake_owned()?;
        let routed = owner != 0 && owner as usize <= self.slots.len();
        if routed {
            let prev = sim.owner();
            sim.set_owner(owner);
            self.slots[owner as usize - 1].on_wake(sim, &wake);
            sim.set_owner(prev);
        } else if owner != 0 || !matches!(wake, Wake::AppTimer { .. }) {
            self.unrouted += 1;
        }
        Some((wake, routed))
    }

    /// Starts a resolution on the registered client `id` without driving
    /// the loop and returns the transaction (and attribution) id the
    /// client drew for it; pair with [`Driver::run_until_quiescent`] /
    /// [`Driver::take_response`] to overlap many in-flight resolutions.
    pub fn send_query(&mut self, sim: &mut Sim, id: EndpointId, name: &Name) -> u16 {
        let prev = sim.owner();
        sim.set_owner(id.0);
        let txn = self.resolver_mut(id).send_query(sim, name);
        sim.set_owner(prev);
        txn
    }

    /// Removes and returns client `id`'s response to transaction `txn`.
    pub fn take_response(&mut self, id: EndpointId, txn: u16) -> Option<Message> {
        self.resolver_mut(id).take_response(txn)
    }

    /// Initiates a graceful teardown of client `id`'s transport state.
    pub fn close(&mut self, sim: &mut Sim, id: EndpointId) {
        let prev = sim.owner();
        sim.set_owner(id.0);
        self.resolver_mut(id).close(sim);
        sim.set_owner(prev);
    }

    /// Sends one query from client `id` and runs the simulation — routing
    /// every wake to its owner — until the response arrives. If the
    /// simulation runs dry first, returns the lost query's transaction id
    /// as the error.
    pub fn resolve(&mut self, sim: &mut Sim, id: EndpointId, name: &Name) -> Result<Message, u16> {
        let txn = self.send_query(sim, id, name);
        loop {
            if let Some(response) = self.take_response(id, txn) {
                assert_eq!(response.header.id, txn, "an answer carries its query's id");
                return Ok(response);
            }
            self.step(sim).ok_or(txn)?;
        }
    }

    /// Runs the simulation to quiescence, routing every wake to its owner
    /// — unlike [`Sim::drain`], which discards wakes, so teardown traffic
    /// (FINs) still reaches the endpoints' state machines.
    pub fn run_until_quiescent(&mut self, sim: &mut Sim) {
        while self.step(sim).is_some() {}
    }

    /// Advances the simulation to time `at`, routing wakes seen on the way
    /// (leftover ACKs, FIN teardown, late responses) — the idle time
    /// between two workload arrivals. It arms an unowned application timer
    /// at `at` under a token reserved for it (`u64::MAX`, which endpoint
    /// timers may not use); wakes due after `at` stay queued.
    #[expect(
        clippy::disallowed_methods,
        reason = "the driver's own unowned ADVANCE_TOKEN timer, popped back through `step`"
    )]
    pub fn advance_until(&mut self, sim: &mut Sim, at: SimTime) {
        let prev = sim.owner();
        sim.set_owner(0);
        sim.schedule_app(at, ADVANCE_TOKEN);
        sim.set_owner(prev);
        while let Some((wake, routed)) = self.step(sim) {
            if !routed && matches!(wake, Wake::AppTimer { token: ADVANCE_TOKEN, .. }) {
                return;
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests arm harness timers directly to check how the driver routes them"
)]
mod tests {
    use super::*;
    use crate::{DohH2Server, ReusePolicy, TransportConfig, TransportKind};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Registers a concrete server while the test keeps a handle on it,
    /// for the assertions a boxed slot hides.
    struct Shared(Rc<RefCell<DohH2Server>>);

    impl Endpoint for Shared {
        fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
            self.0.borrow_mut().on_wake(sim, wake);
        }
    }

    #[test]
    fn a_closing_bystander_session_keeps_its_teardown_wakes() {
        // Two DoH/2 sessions on one resolver. Session A's GOAWAY/FIN
        // exchange is still in flight while session B's resolution is
        // driven: the loop must not swallow A's teardown wakes.
        let cfg = TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent);
        let mut sim = Sim::new(5);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, cfg.link);
        let mut driver = Driver::new();
        let mut server = None;
        driver.register(&mut sim, |sim| {
            let tls = cfg.tls().expect("doh uses tls");
            let bound = DohH2Server::bind(
                sim,
                resolver,
                443,
                tls,
                TransportConfig::ANSWER,
                TransportConfig::TTL,
            );
            let shared = Rc::new(RefCell::new(bound));
            server = Some(shared.clone());
            Box::new(Shared(shared))
        });
        let server = server.expect("the build closure ran");
        let a = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
        let b = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();

        driver.resolve(&mut sim, a, &name).expect("session A resolves");
        driver.resolve(&mut sim, b, &name).expect("session B resolves");
        assert_eq!(server.borrow().open_connections(), 2);
        driver.close(&mut sim, a);
        let response = driver.resolve(&mut sim, b, &name);
        assert!(response.is_ok(), "B's answer arrives while A tears down");
        driver.run_until_quiescent(&mut sim);
        // A's FIN reached the server instead of being discarded; B's
        // persistent connection is untouched.
        assert_eq!(server.borrow().open_connections(), 1, "A's teardown wake was lost");
        assert_eq!(driver.unrouted_wakes(), 0);
        // And A reconnects cleanly afterwards.
        driver.resolve(&mut sim, a, &name).expect("session A reconnects");
        assert_eq!(server.borrow().open_connections(), 2);
        assert_eq!(driver.unrouted_wakes(), 0);
    }

    #[test]
    fn two_clients_hold_the_same_transaction_id_at_once() {
        for cfg in TransportConfig::matrix() {
            let mut sim = Sim::new(3);
            let resolver = sim.add_host("resolver");
            let mut driver = Driver::new();
            driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
            let clients = ["stub0", "stub1"].map(|host| {
                let stub = sim.add_host(host);
                sim.add_link(stub, resolver, cfg.link);
                driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver))
            });
            let names = ["left", "right"].map(|l| Name::parse(&format!("{l}.test")).unwrap());
            // Ids are per client: each one's first query is id 1.
            for (client, name) in clients.into_iter().zip(&names) {
                assert_eq!(driver.send_query(&mut sim, client, name), 1, "{}", cfg.label());
            }
            driver.run_until_quiescent(&mut sim);
            for (client, name) in clients.into_iter().zip(&names) {
                let response = driver.take_response(client, 1).expect("answered");
                assert_eq!(&response.answers[0].name, name, "{}", cfg.label());
                assert_eq!(driver.send_query(&mut sim, client, name), 2, "{}", cfg.label());
            }
        }
    }

    #[test]
    fn advance_until_stops_on_time_and_leaves_later_wakes_queued() {
        let mut sim = Sim::new(1);
        let mut driver = Driver::new();
        let at = SimTime::ZERO + SimDuration::from_millis(50);
        sim.schedule_app(SimTime::ZERO + SimDuration::from_millis(20), 3);
        sim.schedule_app(at + SimDuration::from_millis(10), 7);
        driver.advance_until(&mut sim, at);
        assert_eq!(sim.now(), at);
        // The earlier harness timer was passed on the way; the later one
        // is still queued and comes back from the next step, unrouted.
        let (wake, routed) = driver.step(&mut sim).expect("the later timer is still queued");
        assert!(matches!(wake, Wake::AppTimer { token: 7, .. }) && !routed, "{wake:?}");
        assert_eq!(sim.now(), at + SimDuration::from_millis(10));
        assert!(driver.step(&mut sim).is_none());
        assert_eq!(driver.unrouted_wakes(), 0, "harness timers are not endpoint wakes");
    }
}
