//! The discrete-event simulator core: virtual clock, event queue, hosts,
//! links, UDP sockets and the application wake/poll interface.
//!
//! Applications (the DNS clients and servers in `dohmark-doh`) drive the
//! simulation through a poll loop:
//!
//! ```text
//! while let Some(wake) = sim.next_wake() {
//!     match wake { ... react: send, recv, schedule ... }
//! }
//! ```
//!
//! Internal transport events (packet deliveries, TCP timers) are processed
//! transparently; only application-visible conditions surface as [`Wake`]s.
//!
//! # The event queue
//!
//! Events wait in one `BinaryHeap` and fire in `(at, seq)` order, `seq`
//! being drawn from a counter when an event is scheduled. That moment must
//! not move: the per-packet loss and jitter draws in `Sim::send_packet`
//! happen in event order, so reordering two same-instant events changes
//! which packets a lossy link drops, and with them every report digest. A
//! TCP timer draws a `seq` at every arm too, but queues at most one event
//! at a time (see `netsim::tcp`). [`Sim::stats`] counts what the heap did.

use crate::link::{DirLink, LinkConfig};
use crate::packet::{Body, Packet};
use crate::rng::SimRng;
use crate::tcp::{Listener, TcpConn, TimerKind};
use crate::time::{SimDuration, SimTime};
use crate::trace::{CostMeter, LayerBytes, LayerTag, MAX_ATTR};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// The first ephemeral port; the range runs from here to 65 535.
const EPHEMERAL_BASE: u16 = 40_000;
/// How many ephemeral ports there are.
const EPHEMERAL_PORTS: usize = (u16::MAX - EPHEMERAL_BASE) as usize + 1;

/// Identifier of a simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub(crate) usize);

/// Identifier of a UDP socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockId(pub(crate) usize);

/// Identifier of a TCP listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListenerId(pub(crate) usize);

/// Which end of a TCP connection a handle refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// The initiating end.
    Client,
    /// The accepting end.
    Server,
}

impl Side {
    /// The opposite end.
    pub(crate) fn peer(self) -> Side {
        match self {
            Side::Client => Side::Server,
            Side::Server => Side::Client,
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Side::Client => 0,
            Side::Server => 1,
        }
    }
}

/// Application-facing handle to one end of a TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcpHandle {
    pub(crate) conn: usize,
    /// Which end this handle drives.
    pub side: Side,
}

impl TcpHandle {
    /// The connection's index in this simulation: both ends share it,
    /// [`Sim::tcp_connect`] hands them out 0, 1, 2, … in call order, and a
    /// closed connection keeps its own, so none is ever reused. Dense
    /// enough to index a per-connection table by.
    pub fn index(self) -> usize {
        self.conn
    }
}

/// Application-visible simulation events. A wake is returned at the
/// instant it happened, so [`Sim::now`] is its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A timer scheduled with [`Sim::schedule_app`] fired.
    AppTimer {
        /// Caller-chosen token identifying the timer.
        token: u64,
    },
    /// A UDP socket has at least one datagram queued.
    UdpReadable {
        /// The readable socket.
        sock: SockId,
    },
    /// A `tcp_connect` completed (three-way handshake done, client side).
    TcpConnected {
        /// Client-side handle.
        conn: TcpHandle,
    },
    /// A listener produced a new established server-side connection.
    TcpAccepted {
        /// The listener that matched.
        listener: ListenerId,
        /// Server-side handle.
        conn: TcpHandle,
    },
    /// A TCP connection has new bytes for [`Sim::tcp_read`]. May be
    /// spurious if an earlier read already consumed them.
    TcpReadable {
        /// Readable end.
        conn: TcpHandle,
    },
    /// The peer closed its direction (EOF after draining readable bytes).
    TcpFin {
        /// End observing the EOF.
        conn: TcpHandle,
    },
}

/// One entry of the event queue: when, a tie-breaker, and a small kind.
///
/// Every `BinaryHeap` sift moves whole entries, so an entry carries no
/// packet: a delivery names a [`PacketSlab`] slot instead. Order is
/// `(at, seq)`; see the module docs for where `seq` comes from.
///
/// A TCP timer re-armed later is not queued again, so [`Sim::now`] after
/// [`Sim::drain`] can end before the last deadline a timer was armed for.
/// A cancelled timer's queued event still pops, to do nothing.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Ev {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EvKind,
}

// With a `Packet` inline an entry would be over three times as large.
const _: () = assert!(std::mem::size_of::<Ev>() <= 40);

/// What an [`Ev`] does; `Deliver` names the [`PacketSlab`] slot of the
/// packet that arrives. No two entries share a `seq`, so the derived order
/// never compares kinds.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EvKind {
    Deliver(u32),
    TcpTimer { conn: usize, side: Side, kind: TimerKind },
    AppTimer { token: u64, owner: u64 },
}

/// What the engine did so far, counted unconditionally: every field is a
/// plain increment on a path that already writes to the [`Sim`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events queued, TCP timer events queued again included. Not the `seq`
    /// counter: a TCP timer arm draws a `seq` even when it queues nothing.
    pub events_scheduled: u64,
    /// Events popped. Equal to `events_scheduled` once the simulation has
    /// run dry: nothing scheduled is ever dropped unpopped.
    pub events_popped: u64,
    /// Popped events that were a delayed-ACK or retransmission timer's.
    pub tcp_timers_popped: u64,
    /// Of those, the ones that fired nothing: their timer was cancelled, had
    /// an earlier event queued since, or is due later (queued again).
    pub tcp_timers_stale: u64,
    /// Retransmission timers that expired.
    pub tcp_rtos_fired: u64,
    /// The most entries the heap held at once.
    pub heap_peak: u64,
    /// Bytes put on links: the sum of every transmitted packet's wire
    /// length, headers included, dropped packets too. Counted apart from
    /// the [`CostMeter`], whose total it equals on a run that conserves
    /// what it meters. [`Sim::link_bytes`] splits it by link direction.
    pub wire_bytes: u64,
    /// Packets dropped: lost on a link, sent with no route, or arriving
    /// where no open socket, listener or connection takes them.
    pub dropped: u64,
}

/// Out-of-line storage for the packets in flight, so heap entries stay
/// small. A slot is taken when a packet is put on a link and freed when it
/// is delivered. A slot holds no payload bytes for a TCP segment, and moves
/// a UDP datagram's payload `Vec` in and out without copying it. Free
/// slots are chained through the slots themselves, so the slab is one
/// allocation, and at its high-water mark it makes none.
#[derive(Debug, Default)]
struct PacketSlab {
    slots: Vec<Slot>,
    /// The most recently freed slot, the head of the free chain.
    free: Option<u32>,
}

#[derive(Debug)]
enum Slot {
    InFlight(Packet),
    Free { next: Option<u32> },
}

impl PacketSlab {
    fn insert(&mut self, pkt: Packet) -> u32 {
        let Some(slot) = self.free else {
            self.slots.push(Slot::InFlight(pkt));
            return u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 packets in flight");
        };
        match std::mem::replace(&mut self.slots[slot as usize], Slot::InFlight(pkt)) {
            Slot::Free { next } => self.free = next,
            Slot::InFlight(_) => unreachable!("the free chain names a slot in flight"),
        }
        slot
    }

    fn take(&mut self, slot: u32) -> Packet {
        let freed = Slot::Free { next: self.free };
        match std::mem::replace(&mut self.slots[slot as usize], freed) {
            Slot::InFlight(pkt) => {
                self.free = Some(slot);
                pkt
            }
            Slot::Free { .. } => unreachable!("a delivery event owns its slot"),
        }
    }
}

/// The links out of one host, as `(dst host, index into links)`: the first
/// one installed inline, since most hosts (a fleet's stubs) have only that
/// one and so need no allocation of their own, and any more in `rest`,
/// sorted by destination.
#[derive(Debug, Default)]
struct Routes {
    first: Option<(usize, usize)>,
    rest: Vec<(usize, usize)>,
}

impl Routes {
    /// The index into links of the link to `dst`, if there is one: the
    /// inline route, else one binary search.
    fn get(&self, dst: usize) -> Option<usize> {
        match self.first {
            Some((to, link)) if to == dst => Some(link),
            _ => self.rest.binary_search_by_key(&dst, |&(to, _)| to).ok().map(|i| self.rest[i].1),
        }
    }

    /// Adds the link `link` to `dst`, which has none yet.
    fn add(&mut self, dst: usize, link: usize) {
        if self.first.is_none() {
            self.first = Some((dst, link));
        } else {
            let at = self.rest.partition_point(|&(to, _)| to < dst);
            self.rest.insert(at, (dst, link));
        }
    }
}

#[derive(Debug)]
struct UdpSock {
    host: usize,
    port: u16,
    rx: VecDeque<(HostId, u16, Vec<u8>)>,
    owner: u64,
}

/// The simulator.
#[derive(Debug)]
pub struct Sim {
    now: SimTime,
    heap: BinaryHeap<Reverse<Ev>>,
    /// The next `seq` to draw.
    next_seq: u64,
    pub(crate) stats: EngineStats,
    packets: PacketSlab,
    hosts: Vec<String>,
    pub(crate) links: Vec<DirLink>,
    /// The routes out of each host, indexed by its `HostId`. A lookup is a
    /// short search in one host's routes, no hashing, and installing a link
    /// touches no other host's. An index, once handed out, stays valid:
    /// links are replaced in place, never removed.
    routes: Vec<Routes>,
    udp: Vec<UdpSock>,
    /// The open sockets as `(host, port, sock)`: the first entry in a
    /// `(host, port)` range is the earliest-bound open socket, which is
    /// the one a datagram is delivered to.
    udp_open: BTreeSet<(usize, u16, usize)>,
    pub(crate) listeners: Vec<Listener>,
    pub(crate) conns: Vec<TcpConn>,
    pub(crate) wakes: VecDeque<(Wake, u64)>,
    /// Per-attribution byte/packet accounting.
    pub meter: CostMeter,
    rng: SimRng,
    attr: u32,
    owner: u64,
    next_ephemeral: u16,
}

impl Sim {
    /// Creates an empty simulation with a deterministic seed.
    pub fn new(seed: u64) -> Sim {
        Sim {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            stats: EngineStats::default(),
            packets: PacketSlab::default(),
            hosts: Vec::new(),
            links: Vec::new(),
            routes: Vec::new(),
            udp: Vec::new(),
            udp_open: BTreeSet::new(),
            listeners: Vec::new(),
            conns: Vec::new(),
            wakes: VecDeque::new(),
            meter: CostMeter::default(),
            rng: SimRng::new(seed),
            attr: 0,
            owner: 0,
            next_ephemeral: EPHEMERAL_BASE,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Packets dropped so far: [`EngineStats::dropped`].
    pub fn dropped_packets(&self) -> u64 {
        self.stats.dropped
    }

    /// Engine counts so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Sets the attribution id stamped on subsequently created packets.
    /// This is where an id enters the simulator, so this is where it is
    /// held to the [`CostMeter`]'s table bound.
    ///
    /// # Panics
    ///
    /// If `attr` exceeds `u16::MAX`; every caller widens a `u16` DNS
    /// transaction id.
    pub fn set_attr(&mut self, attr: u32) {
        assert!(attr <= MAX_ATTR, "attribution id {attr} exceeds MAX_ATTR");
        self.attr = attr;
    }

    /// The current attribution id.
    pub fn attr(&self) -> u32 {
        self.attr
    }

    /// Sets the wake-ownership id stamped on subsequently created handles
    /// (UDP sockets, TCP listeners/connections, app timers). Wakes for a
    /// handle carry its owner, so a registry-style driver can route each
    /// wake straight to the endpoint that owns the handle. Owner `0` means
    /// "unowned": the wake belongs to whoever drives the loop.
    pub fn set_owner(&mut self, owner: u64) {
        self.owner = owner;
    }

    /// The current wake-ownership id.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// A deterministic child RNG for workload generation.
    ///
    /// Same conventions as [`SimRng::split`]: `label` is a named `*_STREAM`
    /// constant beside the existing eight, and each call advances the
    /// simulation's own RNG, so call order is part of the stream.
    pub fn split_rng(&mut self, label: u64) -> SimRng {
        self.rng.split(label)
    }

    /// Adds a host and returns its id.
    pub fn add_host(&mut self, name: &str) -> HostId {
        self.hosts.push(name.to_string());
        HostId(self.hosts.len() - 1)
    }

    /// Connects two hosts with symmetric link characteristics.
    pub fn add_link(&mut self, a: HostId, b: HostId, cfg: LinkConfig) {
        self.add_link_asymmetric(a, b, cfg, cfg);
    }

    /// Connects two hosts with distinct per-direction characteristics.
    pub(crate) fn add_link_asymmetric(
        &mut self,
        a: HostId,
        b: HostId,
        a_to_b: LinkConfig,
        b_to_a: LinkConfig,
    ) {
        self.set_dir_link(a, b, a_to_b);
        self.set_dir_link(b, a, b_to_a);
    }

    /// Installs (or replaces, keeping its index and its byte count) the
    /// link `src -> dst`.
    fn set_dir_link(&mut self, src: HostId, dst: HostId, cfg: LinkConfig) {
        if self.routes.len() <= src.0 {
            self.routes.resize_with(src.0 + 1, Routes::default);
        }
        match self.routes[src.0].get(dst.0) {
            Some(link) => {
                let link = &mut self.links[link];
                let bytes = link.bytes;
                *link = DirLink::new(cfg);
                link.bytes = bytes;
            }
            None => {
                self.routes[src.0].add(dst.0, self.links.len());
                self.links.push(DirLink::new(cfg));
            }
        }
    }

    /// Wire bytes put on the link `src -> dst` so far, headers and lost
    /// packets included; 0 if no such link is configured. Summed over
    /// every configured direction, it is [`EngineStats::wire_bytes`].
    pub fn link_bytes(&self, src: HostId, dst: HostId) -> u64 {
        self.route(src, dst).map_or(0, |link| self.links[link].bytes)
    }

    /// Index into `links` of the link `src -> dst`, if one is configured.
    pub(crate) fn route(&self, src: HostId, dst: HostId) -> Option<usize> {
        self.routes.get(src.0)?.get(dst.0)
    }

    /// Draws the next `seq`: every scheduled event and every TCP timer arm
    /// takes one.
    pub(crate) fn draw_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Schedules `kind` at `at`, after everything scheduled so far.
    pub(crate) fn push_event(&mut self, at: SimTime, kind: EvKind) {
        let seq = self.draw_seq();
        self.push_at(at, seq, kind);
    }

    /// Queues `kind` under a key drawn earlier: a TCP timer's deadline.
    pub(crate) fn push_at(&mut self, at: SimTime, seq: u64, kind: EvKind) {
        self.stats.events_scheduled += 1;
        self.heap.push(Reverse(Ev { at, seq, kind }));
        self.stats.heap_peak = self.stats.heap_peak.max(self.heap.len() as u64);
    }

    /// Pops the least `(at, seq)` and moves the clock to it.
    pub(crate) fn pop_event(&mut self) -> Option<Ev> {
        let Reverse(ev) = self.heap.pop()?;
        debug_assert!(ev.at >= self.now, "time must be monotone");
        self.now = ev.at;
        self.stats.events_popped += 1;
        Some(ev)
    }

    /// Schedules an application timer at an absolute time. The timer's
    /// wake is owned by the current [`Sim::set_owner`] id.
    pub fn schedule_app(&mut self, at: SimTime, token: u64) {
        let at = if at < self.now { self.now } else { at };
        let owner = self.owner;
        self.push_event(at, EvKind::AppTimer { token, owner });
    }

    /// Schedules an application timer after a delay.
    #[expect(
        clippy::disallowed_methods,
        reason = "defined in terms of `schedule_app`, the method it wraps"
    )]
    pub fn schedule_app_in(&mut self, delay: SimDuration, token: u64) {
        self.schedule_app(self.now + delay, token);
    }

    pub(crate) fn alloc_ephemeral(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = if p == u16::MAX { EPHEMERAL_BASE } else { p + 1 };
        p
    }

    // ------------------------------------------------------------------
    // UDP
    // ------------------------------------------------------------------

    /// Binds a UDP socket on `host`. Port 0 selects an ephemeral port —
    /// this is how the paper's §3 UDP client multiplexes queries over many
    /// independent source ports. The ephemeral counter wraps, and skips any
    /// port an open socket on `host` still holds: a socket a harness keeps
    /// open for as long as the counter takes to wrap never shares its port
    /// with a later one, so it cannot take that one's datagrams.
    ///
    /// # Panics
    ///
    /// If every ephemeral port on `host` is held by an open socket.
    pub fn udp_bind(&mut self, host: HostId, port: u16) -> SockId {
        let port = if port == 0 { self.free_ephemeral_udp(host) } else { port };
        let owner = self.owner;
        self.udp.push(UdpSock { host: host.0, port, rx: VecDeque::new(), owner });
        let sock = self.udp.len() - 1;
        self.udp_open.insert((host.0, port, sock));
        SockId(sock)
    }

    /// Closes a UDP socket: queued datagrams and their storage are
    /// discarded, later arrivals no longer match it, and an ephemeral port
    /// it held is free again.
    pub fn udp_close(&mut self, sock: SockId) {
        let s = &mut self.udp[sock.0];
        s.rx = VecDeque::new();
        self.udp_open.remove(&(s.host, s.port, sock.0));
    }

    /// The next ephemeral port that no open socket on `host` holds.
    fn free_ephemeral_udp(&mut self, host: HostId) -> u16 {
        for _ in 0..EPHEMERAL_PORTS {
            let port = self.alloc_ephemeral();
            if self.open_sock(host.0, port).is_none() {
                return port;
            }
        }
        panic!(
            "all {EPHEMERAL_PORTS} ephemeral UDP ports on host {:?} are bound",
            self.hosts[host.0]
        );
    }

    /// The local port of a UDP socket.
    pub fn udp_local_port(&self, sock: SockId) -> u16 {
        self.udp[sock.0].port
    }

    /// Sends a datagram from `sock` to `(host, port)`; the payload is
    /// accounted under `tag` with the current attribution.
    pub fn udp_send(&mut self, sock: SockId, dst: (HostId, u16), tag: LayerTag, payload: Vec<u8>) {
        let src_sock = &self.udp[sock.0];
        let src = (HostId(src_sock.host), src_sock.port);
        let layers = LayerBytes::of(tag, payload.len() as u64);
        let pkt = Packet { src, dst, body: Body::Datagram(payload), layers, attr: self.attr };
        let link = self.route(src.0, dst.0);
        self.send_packet(pkt, link);
    }

    /// Receives one queued datagram, if any.
    pub fn udp_recv(&mut self, sock: SockId) -> Option<(HostId, u16, Vec<u8>)> {
        self.udp[sock.0].rx.pop_front()
    }

    // ------------------------------------------------------------------
    // Packet transmission and delivery
    // ------------------------------------------------------------------

    /// Puts `pkt` on `link` (its [`Sim::route`], resolved by the caller so
    /// a TCP endpoint can look it up once per connection): meters it,
    /// draws its fate, and schedules the delivery.
    pub(crate) fn send_packet(&mut self, pkt: Packet, link: Option<usize>) {
        debug_assert_eq!(
            pkt.layers.total(),
            pkt.payload_len() as u64,
            "layer bytes must cover the payload exactly"
        );
        debug_assert_eq!(link, self.route(pkt.src.0, pkt.dst.0), "a stale cached route");
        let Some(link) = link else {
            self.stats.dropped += 1;
            return;
        };
        let cfg = self.links[link].cfg;
        // Every transmitted packet consumes wire bytes, delivered or not.
        self.meter.record(&pkt);
        let wire_len = pkt.wire_len() as u64;
        self.stats.wire_bytes += wire_len;
        self.links[link].bytes += wire_len;
        if self.rng.chance(cfg.loss) {
            self.stats.dropped += 1;
            return;
        }
        let jitter = if cfg.jitter > SimDuration::ZERO {
            SimDuration::from_nanos(self.rng.range_u64(0, cfg.jitter.as_nanos()))
        } else {
            SimDuration::ZERO
        };
        let arrival = self.links[link].schedule(self.now, pkt.wire_len(), jitter);
        let slot = self.packets.insert(pkt);
        self.push_event(arrival, EvKind::Deliver(slot));
    }

    /// The earliest-bound open socket on `(host, port)`.
    fn open_sock(&self, host: usize, port: u16) -> Option<usize> {
        self.udp_open.range((host, port, 0)..=(host, port, usize::MAX)).next().map(|s| s.2)
    }

    fn deliver_udp(&mut self, src: (HostId, u16), dst: (HostId, u16), payload: Vec<u8>) {
        let Some(idx) = self.open_sock(dst.0 .0, dst.1) else {
            self.stats.dropped += 1;
            return;
        };
        self.udp[idx].rx.push_back((src.0, src.1, payload));
        let owner = self.udp[idx].owner;
        self.wakes.push_back((Wake::UdpReadable { sock: SockId(idx) }, owner));
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Advances the simulation until the next application-visible event and
    /// returns it, or `None` when the simulation has run dry.
    #[expect(
        clippy::disallowed_methods,
        reason = "defined in terms of `next_wake_owned`, the method it wraps"
    )]
    pub fn next_wake(&mut self) -> Option<Wake> {
        self.next_wake_owned().map(|(w, _)| w)
    }

    /// Like [`Sim::next_wake`], but also returns the wake's owner id — the
    /// [`Sim::set_owner`] value in effect when the underlying handle was
    /// created. Owner `0` means the handle was created unowned: a routing
    /// driver has no endpoint to hand the wake to and returns it to its
    /// caller.
    pub fn next_wake_owned(&mut self) -> Option<(Wake, u64)> {
        loop {
            if let Some(w) = self.wakes.pop_front() {
                return Some(w);
            }
            let ev = self.pop_event()?;
            if let Some(wake) = self.process(ev) {
                return Some(wake);
            }
        }
    }

    /// Does what a popped event does, and returns the wake of an
    /// application timer; any other wake is queued in `wakes`.
    pub(crate) fn process(&mut self, ev: Ev) -> Option<(Wake, u64)> {
        match ev.kind {
            EvKind::Deliver(slot) => {
                let pkt = self.packets.take(slot);
                match pkt.body {
                    Body::Datagram(payload) => self.deliver_udp(pkt.src, pkt.dst, payload),
                    Body::Segment(seg) => self.on_tcp_segment(seg, pkt.dst),
                }
            }
            EvKind::TcpTimer { conn, side, kind } => {
                self.stats.tcp_timers_popped += 1;
                self.on_tcp_timer(conn, side, kind, (ev.at, ev.seq));
            }
            EvKind::AppTimer { token, owner } => return Some((Wake::AppTimer { token }, owner)),
        }
        None
    }

    /// Runs the simulation to quiescence, discarding wakes. Useful to let
    /// in-flight ACK/teardown traffic settle before reading the meter.
    #[expect(clippy::disallowed_methods, reason = "discarding wakes is what `drain` is for")]
    pub fn drain(&mut self) {
        while self.next_wake().is_some() {}
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the event loop's own tests, below any Driver")]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn two_hosts(seed: u64) -> (Sim, HostId, HostId) {
        let mut sim = Sim::new(seed);
        let a = sim.add_host("client");
        let b = sim.add_host("server");
        sim.add_link(a, b, LinkConfig::localhost());
        (sim, a, b)
    }

    #[test]
    fn udp_round_trip_delivers_payload_and_wakes() {
        let (mut sim, a, b) = two_hosts(1);
        let sa = sim.udp_bind(a, 0);
        let sb = sim.udp_bind(b, 53);
        sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![1, 2, 3]);
        match sim.next_wake() {
            Some(Wake::UdpReadable { sock }) => {
                assert_eq!(sock, sb);
                assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_micros(50));
            }
            other => panic!("unexpected wake {other:?}"),
        }
        let (src_host, src_port, data) = sim.udp_recv(sb).unwrap();
        assert_eq!(src_host, a);
        assert_eq!(src_port, sim.udp_local_port(sa));
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn udp_to_unbound_port_is_dropped() {
        let (mut sim, a, b) = two_hosts(2);
        let sa = sim.udp_bind(a, 0);
        sim.udp_send(sa, (b, 5353), LayerTag::DnsPayload, vec![0]);
        assert!(sim.next_wake().is_none());
        assert_eq!(sim.dropped_packets(), 1);
    }

    #[test]
    fn closed_socket_no_longer_receives_and_frees_its_port() {
        let (mut sim, a, b) = two_hosts(20);
        let sa = sim.udp_bind(a, 0);
        let old = sim.udp_bind(b, 53);
        sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![1]);
        sim.next_wake();
        sim.udp_close(old);
        assert!(sim.udp_recv(old).is_none(), "queued datagrams are discarded on close");
        assert_eq!(sim.udp[old.0].rx.capacity(), 0, "and their storage with them");
        // Datagrams to the dead socket's port are dropped…
        sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![2]);
        assert!(sim.next_wake().is_none());
        assert_eq!(sim.dropped_packets(), 1);
        // …until a new socket binds the same port and receives instead.
        let new = sim.udp_bind(b, 53);
        sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![3]);
        match sim.next_wake() {
            Some(Wake::UdpReadable { sock, .. }) => assert_eq!(sock, new),
            other => panic!("unexpected wake {other:?}"),
        }
        assert_eq!(sim.udp_recv(new).unwrap().2, vec![3]);
    }

    #[test]
    fn the_earliest_bound_open_socket_on_a_port_receives() {
        let (mut sim, a, b) = two_hosts(21);
        let sa = sim.udp_bind(a, 0);
        let first = sim.udp_bind(b, 53);
        let second = sim.udp_bind(b, 53);
        let receiver = |sim: &mut Sim| {
            sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![7]);
            match sim.next_wake() {
                Some(Wake::UdpReadable { sock, .. }) => {
                    assert!(sim.udp_recv(sock).is_some());
                    sock
                }
                other => panic!("unexpected wake {other:?}"),
            }
        };
        assert_eq!(receiver(&mut sim), first);
        assert_eq!(receiver(&mut sim), first, "and keeps receiving");
        sim.udp_close(first);
        assert_eq!(receiver(&mut sim), second);
        sim.udp_close(first); // closing twice changes nothing
        assert_eq!(receiver(&mut sim), second);
        assert_eq!(sim.dropped_packets(), 0);
    }

    /// A socket left open keeps its port however often the ephemeral
    /// counter wraps past it, so it cannot take a later socket's datagrams.
    #[test]
    fn an_ephemeral_bind_skips_a_port_still_open() {
        let (mut sim, a, _) = two_hosts(27);
        let kept = sim.udp_bind(a, 0);
        for _ in 1..EPHEMERAL_PORTS {
            let sock = sim.udp_bind(a, 0);
            sim.udp_close(sock);
        }
        let next = sim.udp_bind(a, 0);
        assert_ne!(sim.udp_local_port(next), sim.udp_local_port(kept));
    }

    #[test]
    #[should_panic(expected = "ephemeral UDP ports on host \"client\" are bound")]
    fn binding_every_ephemeral_port_of_a_host_panics_naming_it() {
        let (mut sim, a, b) = two_hosts(28);
        for _ in 0..EPHEMERAL_PORTS {
            sim.udp_bind(a, 0);
        }
        sim.udp_bind(b, 0); // another host's ports are its own
        sim.udp_bind(a, 0);
    }

    #[test]
    fn packet_slots_are_reused_not_leaked() {
        let (mut sim, a, b) = two_hosts(22);
        let sa = sim.udp_bind(a, 0);
        sim.udp_bind(b, 53);
        let live =
            |sim: &Sim| sim.packets.slots.iter().filter(|s| matches!(s, Slot::InFlight(_))).count();
        for round in 0..3 {
            for _ in 0..1000 {
                sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![0; 40]);
            }
            assert_eq!(live(&sim), 1000, "round {round}");
            sim.drain();
            // Nothing is live, and the slab stays at the burst's high-water mark.
            assert_eq!(live(&sim), 0, "round {round}");
            assert_eq!(sim.packets.slots.len(), 1000, "round {round}");
        }
    }

    /// Mixed TCP, UDP and app-timer traffic over a 2 % lossy link, run dry;
    /// checks the meter against the wire on the way out.
    fn lossy_mixed_run() -> Sim {
        let mut sim = Sim::new(23);
        let a = sim.add_host("client");
        let b = sim.add_host("server");
        sim.add_link(a, b, LinkConfig::localhost().loss(0.02));
        sim.tcp_listen(b, 443);
        let client = sim.tcp_connect(a, (b, 443));
        let sa = sim.udp_bind(a, 0);
        sim.udp_bind(b, 53);
        let mut written = 0;
        for write in 0..200u32 {
            sim.set_attr(write % 7);
            // A TLS-record-shaped write; every tenth spans several segments.
            let body = vec![write as u8; if write % 10 == 0 { 5000 } else { 90 }];
            written += body.len() as u64;
            sim.tcp_send_vectored(
                client,
                &[
                    (LayerTag::Tls, &[1; 5]),
                    (LayerTag::HttpHeader, &[2; 60]),
                    (LayerTag::HttpBody, &body),
                    (LayerTag::HttpMgmt, &[]),
                    (LayerTag::Tls, &[4; 16]),
                ],
            );
            sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![0; 33]);
            // Let some of it be acknowledged (and some of it time out)
            // before the next write lands behind it.
            sim.schedule_app_in(SimDuration::from_millis(30), 0);
            while !matches!(sim.next_wake(), Some(Wake::AppTimer { .. })) {}
        }
        sim.tcp_close(client);
        sim.drain();
        assert!(sim.dropped_packets() > 0, "the link lost nothing");
        let total = sim.meter.total();
        assert!(total.layers.get(LayerTag::HttpBody) > written, "nothing was retransmitted");
        assert_eq!(total.bytes, sim.stats().wire_bytes);
        assert_eq!(total.layers.total(), total.bytes);
        sim
    }

    /// Every byte put on a wire is metered exactly once and lands in exactly
    /// one layer bucket — retransmitted and dropped packets included.
    #[test]
    fn meter_conserves_wire_bytes_over_a_lossy_link() {
        lossy_mixed_run();
    }

    /// Each link direction counts the bytes put on it, lost packets
    /// included, and re-adding a link (healing it) keeps the count.
    #[test]
    fn link_bytes_sum_to_the_wire_bytes_over_a_lossy_run() {
        let mut sim = lossy_mixed_run();
        let (a, b) = (HostId(0), HostId(1));
        let both = |sim: &Sim| [sim.link_bytes(a, b), sim.link_bytes(b, a)];
        let [ab, ba] = both(&sim);
        assert!(ab > 0 && ba > 0, "{ab} {ba}");
        assert_eq!(ab + ba, sim.stats().wire_bytes, "the dropped packets' bytes too");
        let c = sim.add_host("unlinked");
        assert_eq!([sim.link_bytes(a, c), sim.link_bytes(c, a), sim.link_bytes(a, a)], [0; 3]);

        sim.add_link(a, b, LinkConfig::localhost());
        assert_eq!(both(&sim), [ab, ba], "a re-added link keeps its count");
        let sock = sim.udp_bind(a, 0);
        sim.udp_send(sock, (b, 53), LayerTag::DnsPayload, vec![0; 33]);
        sim.drain();
        let datagram = (33 + crate::IP_HEADER + crate::UDP_HEADER) as u64;
        assert_eq!(both(&sim), [ab + datagram, ba]);
        assert_eq!(ab + datagram + ba, sim.stats().wire_bytes);
    }

    /// A fleet's star of links, installed hub-first and in shuffled order:
    /// each direction routes to the link index it was given when installed,
    /// a re-added link keeps it, and an absent direction has no route.
    #[test]
    fn routes_keep_their_link_index_in_any_install_order() {
        let mut sim = Sim::new(5);
        let hub = sim.add_host("resolver");
        let spokes: Vec<HostId> = (0..40).map(|i| sim.add_host(&format!("stub{i}"))).collect();
        let mut order = spokes.clone();
        let mut rng = SimRng::new(9);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut given = Vec::new();
        for &spoke in &order {
            sim.add_link(hub, spoke, LinkConfig::localhost());
            given.push((spoke, sim.links.len() - 2));
        }
        sim.add_link(spokes[7], spokes[3], LinkConfig::localhost());
        for &spoke in order.iter().rev().step_by(3) {
            sim.add_link(spoke, hub, LinkConfig::localhost().loss(0.5));
        }
        assert_eq!(sim.links.len(), 2 * order.len() + 2, "a re-added link is no new link");
        for &(spoke, link) in &given {
            assert_eq!(sim.route(hub, spoke), Some(link));
            assert_eq!(sim.route(spoke, hub), Some(link + 1));
        }
        assert_eq!(sim.route(spokes[7], spokes[3]), Some(2 * order.len()));
        assert_eq!(sim.route(spokes[3], spokes[8]), None);
        assert_eq!(sim.route(hub, hub), None);
        assert_eq!(sim.route(HostId(999), hub), None);
    }

    /// Every event scheduled is popped, re-queued TCP timers included, and a
    /// dry simulation holds none.
    #[test]
    fn every_scheduled_event_is_popped_by_run_dry() {
        let sim = lossy_mixed_run();
        let stats = sim.stats();
        assert_eq!(stats.events_scheduled, stats.events_popped);
        assert!(sim.heap.is_empty());
        // The scenario reaches both kinds of timer pop: RTOs that fire, and
        // events that fire nothing.
        assert!(stats.tcp_rtos_fired > 0, "no RTO fired");
        assert!(stats.tcp_timers_popped > stats.tcp_rtos_fired);
        assert!(stats.tcp_timers_stale > 0 && stats.tcp_timers_stale < stats.tcp_timers_popped);
        assert!(stats.heap_peak > 0 && stats.heap_peak < stats.events_scheduled);
    }

    #[test]
    fn a_link_added_after_connect_still_routes() {
        let mut sim = Sim::new(24);
        let a = sim.add_host("client");
        let b = sim.add_host("server");
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        assert_eq!(sim.dropped_packets(), 1, "the first SYN had no route");
        sim.add_link(a, b, LinkConfig::localhost());
        // The retransmitted SYN finds the link, and so does everything after.
        sim.tcp_send(client, LayerTag::DnsPayload, &[5; 100]);
        let mut accepted = None;
        while let Some(wake) = sim.next_wake() {
            if let Wake::TcpAccepted { conn, .. } = wake {
                accepted = Some(conn);
            }
        }
        assert_eq!(sim.tcp_recv(accepted.expect("the handshake completed")), vec![5; 100]);
        assert_eq!(sim.dropped_packets(), 1);
    }

    #[test]
    fn app_timers_fire_in_order() {
        let mut sim = Sim::new(3);
        sim.schedule_app(SimTime(2_000), 2);
        sim.schedule_app(SimTime(1_000), 1);
        sim.schedule_app(SimTime(3_000), 3);
        let mut tokens = Vec::new();
        while let Some(Wake::AppTimer { token, .. }) = sim.next_wake() {
            tokens.push(token);
        }
        assert_eq!(tokens, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime(3_000));
    }

    #[test]
    fn equal_time_events_fire_in_fifo_order() {
        let mut sim = Sim::new(4);
        for token in 0..10 {
            sim.schedule_app(SimTime(500), token);
        }
        let mut tokens = Vec::new();
        while let Some(Wake::AppTimer { token, .. }) = sim.next_wake() {
            tokens.push(token);
        }
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    /// The heap pops what one plain heap holding every event at its own key
    /// pops, when timers are queued as `netsim::tcp` queues them: a seeded
    /// mix of events scheduled where they happen and timers whose deadline
    /// `(at, seq)` is drawn at the arm, with one earlier event queued for it
    /// that, once popped, queues the timer again under its deadline
    /// ([`Sim::push_at`]). The reference holds the deadline from the arm on,
    /// and the timer's early events are left out of the comparison.
    #[test]
    fn pop_order_equals_one_plain_heaps() {
        let mut rng = SimRng::new(0x1a9e5);
        let ms = SimDuration::from_millis;
        let timer = || EvKind::TcpTimer { conn: 0, side: Side::Client, kind: TimerKind::Rto };
        let (mut requeued, mut plain) = (0, 0);
        for schedule in 0..1000 {
            let mut sim = Sim::new(schedule);
            let mut reference = BinaryHeap::new();
            // A timer's early event, by its key, and the deadline it holds.
            let mut early = BTreeMap::new();
            // Pops up to and including the next event the reference holds.
            let mut pop =
                |sim: &mut Sim, reference: &mut BinaryHeap<_>, early: &mut BTreeMap<_, _>| loop {
                    let ev = sim.pop_event().expect("the heap ran dry before its reference");
                    let key = (ev.at, ev.seq);
                    if let Some((at, seq)) = early.remove(&key) {
                        sim.push_at(at, seq, ev.kind);
                        requeued += 1;
                        continue;
                    }
                    assert_eq!(reference.pop(), Some(Reverse(key)), "schedule {schedule}");
                    plain += 1;
                    break;
                };
            for _ in 0..rng.range_u64(10, 60) {
                for _ in 0..rng.below(5) {
                    let at = sim.now() + ms(40 * rng.below(12));
                    if rng.chance(0.5) {
                        reference.push(Reverse((at, sim.next_seq)));
                        sim.push_event(at, EvKind::AppTimer { token: 0, owner: 0 });
                    } else {
                        let queued = (at, sim.next_seq);
                        sim.push_event(at, timer());
                        let deadline = (at + ms(40 * rng.below(12)), sim.draw_seq());
                        early.insert(queued, deadline);
                        reference.push(Reverse(deadline));
                    }
                }
                for _ in 0..rng.below(4).min(reference.len() as u64) {
                    pop(&mut sim, &mut reference, &mut early);
                }
            }
            while !reference.is_empty() {
                pop(&mut sim, &mut reference, &mut early);
            }
            assert!(sim.pop_event().is_none(), "schedule {schedule}");
            assert_eq!(sim.stats.events_scheduled, sim.stats.events_popped);
        }
        assert!(requeued > 1000 && plain > 1000, "{requeued} {plain}");
    }

    /// A timer queued again under a deadline drawn before other events pops
    /// by that key, not by when it was queued: after an event due earlier,
    /// and before one due at the same instant whose `seq` came later.
    #[test]
    fn a_requeued_timer_pops_by_its_deadline_key() {
        let mut sim = Sim::new(25);
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        let timer = || EvKind::TcpTimer { conn: 0, side: Side::Client, kind: TimerKind::Rto };
        sim.push_event(ms(200), timer());
        let deadline = sim.draw_seq();
        sim.schedule_app(ms(400), 1);
        sim.schedule_app(ms(300), 2);
        let ev = sim.pop_event().unwrap();
        assert_eq!((ev.at, ev.seq), (ms(200), 0));
        sim.push_at(ms(400), deadline, ev.kind);
        let order: Vec<_> =
            std::iter::from_fn(|| sim.pop_event()).map(|ev| (ev.at, ev.seq)).collect();
        assert_eq!(order, vec![(ms(300), 3), (ms(400), 1), (ms(400), 2)]);
        assert_eq!(sim.stats().events_scheduled, 4);
        assert_eq!(sim.stats().events_popped, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_ATTR")]
    fn an_attribution_id_above_the_bound_is_rejected_where_it_enters() {
        Sim::new(26).set_attr(MAX_ATTR + 1);
    }

    #[test]
    fn past_timers_clamp_to_now() {
        let mut sim = Sim::new(5);
        sim.schedule_app(SimTime(1_000), 1);
        assert!(sim.next_wake().is_some());
        sim.schedule_app(SimTime(10), 2); // in the past now
        match sim.next_wake() {
            Some(Wake::AppTimer { token: 2 }) => assert_eq!(sim.now(), SimTime(1_000)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn meter_counts_udp_packets_with_headers() {
        let (mut sim, a, b) = two_hosts(6);
        let sa = sim.udp_bind(a, 0);
        sim.udp_bind(b, 53);
        sim.set_attr(9);
        sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![0; 33]);
        sim.drain();
        let cost = sim.meter.cost(9);
        assert_eq!(cost.packets, 1);
        assert_eq!(cost.bytes, 33 + 28);
        assert_eq!(cost.layers.get(LayerTag::DnsPayload), 33);
        assert_eq!(cost.layers.get(LayerTag::L4Header), 28);
    }

    #[test]
    fn lossy_link_drops_udp() {
        let mut sim = Sim::new(7);
        let a = sim.add_host("a");
        let b = sim.add_host("b");
        sim.add_link(a, b, LinkConfig::localhost().loss(1.0));
        let sa = sim.udp_bind(a, 0);
        sim.udp_bind(b, 53);
        sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![0; 10]);
        assert!(sim.next_wake().is_none());
        assert_eq!(sim.dropped_packets(), 1);
        // Dropped packets still consumed wire bytes.
        assert_eq!(sim.meter.cost(0).packets, 1);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let run = |seed: u64| {
            let mut sim = Sim::new(seed);
            let a = sim.add_host("a");
            let b = sim.add_host("b");
            sim.add_link(
                a,
                b,
                LinkConfig::localhost().loss(0.3).jitter(SimDuration::from_micros(100)),
            );
            let sa = sim.udp_bind(a, 0);
            sim.udp_bind(b, 53);
            for i in 0..50 {
                sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![i as u8; 20]);
            }
            let mut deliveries = Vec::new();
            while sim.next_wake().is_some() {
                deliveries.push(sim.now().as_nanos());
            }
            (deliveries, sim.dropped_packets())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn missing_link_drops_packet() {
        let mut sim = Sim::new(9);
        let a = sim.add_host("a");
        let b = sim.add_host("b");
        // no link
        let sa = sim.udp_bind(a, 0);
        sim.udp_bind(b, 53);
        sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![1]);
        assert!(sim.next_wake().is_none());
        assert_eq!(sim.dropped_packets(), 1);
    }
}
