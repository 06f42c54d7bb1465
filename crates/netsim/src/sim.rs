//! The discrete-event simulator core: virtual clock, event heap, hosts,
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

use crate::link::{DirLink, LinkConfig};
use crate::packet::{Packet, Proto};
use crate::rng::SimRng;
use crate::tcp::{Listener, TcpConn};
use crate::time::{SimDuration, SimTime};
use crate::trace::{CostMeter, LayerTag, PacketRecord, TraceLog};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Identifier of a simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// Identifier of a UDP socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockId(pub(crate) usize);

/// Identifier of a TCP listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListenerId(pub(crate) usize);

/// Which end of a TCP connection a handle refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The initiating end.
    Client,
    /// The accepting end.
    Server,
}

impl Side {
    /// The opposite end.
    pub fn peer(self) -> Side {
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

/// Application-visible simulation events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A timer scheduled with [`Sim::schedule_app`] fired.
    AppTimer {
        /// Fire time.
        at: SimTime,
        /// Caller-chosen token identifying the timer.
        token: u64,
    },
    /// A UDP socket has at least one datagram queued.
    UdpReadable {
        /// Delivery time.
        at: SimTime,
        /// The readable socket.
        sock: SockId,
    },
    /// A `tcp_connect` completed (three-way handshake done, client side).
    TcpConnected {
        /// Completion time.
        at: SimTime,
        /// Client-side handle.
        conn: TcpHandle,
    },
    /// A listener produced a new established server-side connection.
    TcpAccepted {
        /// Completion time.
        at: SimTime,
        /// The listener that matched.
        listener: ListenerId,
        /// Server-side handle.
        conn: TcpHandle,
    },
    /// A TCP connection has new bytes readable. May be spurious if an
    /// earlier wake already drained them.
    TcpReadable {
        /// Delivery time.
        at: SimTime,
        /// Readable end.
        conn: TcpHandle,
    },
    /// The peer closed its direction (EOF after draining readable bytes).
    TcpFin {
        /// FIN receipt time.
        at: SimTime,
        /// End observing the EOF.
        conn: TcpHandle,
    },
}

impl Wake {
    /// The simulated time the wake fired.
    pub fn at(&self) -> SimTime {
        match *self {
            Wake::AppTimer { at, .. }
            | Wake::UdpReadable { at, .. }
            | Wake::TcpConnected { at, .. }
            | Wake::TcpAccepted { at, .. }
            | Wake::TcpReadable { at, .. }
            | Wake::TcpFin { at, .. } => at,
        }
    }
}

#[derive(Debug)]
pub(crate) struct Ev {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[derive(Debug)]
pub(crate) enum EvKind {
    Deliver(Packet),
    TcpDelack { conn: usize, side: Side, gen: u64 },
    TcpRto { conn: usize, side: Side, gen: u64 },
    AppTimer { token: u64, owner: u64 },
}

#[derive(Debug)]
struct UdpSock {
    host: usize,
    port: u16,
    rx: VecDeque<(HostId, u16, Vec<u8>)>,
    open: bool,
    owner: u64,
}

/// The simulator.
#[derive(Debug)]
pub struct Sim {
    now: SimTime,
    heap: BinaryHeap<Reverse<Ev>>,
    next_seq: u64,
    hosts: Vec<String>,
    /// Keyed lookup only ((src, dst) route resolution) — never iterated,
    /// so the randomized order is unobservable (no-unordered-iteration).
    links: HashMap<(usize, usize), DirLink>,
    udp: Vec<UdpSock>,
    pub(crate) listeners: Vec<Listener>,
    pub(crate) conns: Vec<TcpConn>,
    pub(crate) wakes: VecDeque<(Wake, u64)>,
    /// Per-attribution byte/packet accounting.
    pub meter: CostMeter,
    /// Optional tcpdump-style packet log.
    pub trace: TraceLog,
    rng: SimRng,
    attr: u32,
    owner: u64,
    next_ephemeral: u16,
    pub(crate) dropped: u64,
}

impl Sim {
    /// Creates an empty simulation with a deterministic seed.
    pub fn new(seed: u64) -> Sim {
        Sim {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            hosts: Vec::new(),
            links: HashMap::new(),
            udp: Vec::new(),
            listeners: Vec::new(),
            conns: Vec::new(),
            wakes: VecDeque::new(),
            meter: CostMeter::new(),
            trace: TraceLog::new(),
            rng: SimRng::new(seed),
            attr: 0,
            owner: 0,
            next_ephemeral: 40_000,
            dropped: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Packets dropped by fault injection or missing routes so far.
    pub fn dropped_packets(&self) -> u64 {
        self.dropped
    }

    /// Sets the attribution id stamped on subsequently created packets.
    pub fn set_attr(&mut self, attr: u32) {
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
        self.links.insert((a.0, b.0), DirLink::new(cfg));
        self.links.insert((b.0, a.0), DirLink::new(cfg));
    }

    /// Connects two hosts with distinct per-direction characteristics.
    pub fn add_link_asymmetric(
        &mut self,
        a: HostId,
        b: HostId,
        a_to_b: LinkConfig,
        b_to_a: LinkConfig,
    ) {
        self.links.insert((a.0, b.0), DirLink::new(a_to_b));
        self.links.insert((b.0, a.0), DirLink::new(b_to_a));
    }

    /// The configured link from `a` to `b`, if any.
    pub fn link_config(&self, a: HostId, b: HostId) -> Option<LinkConfig> {
        self.links.get(&(a.0, b.0)).map(|l| l.cfg)
    }

    pub(crate) fn push_event(&mut self, at: SimTime, kind: EvKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Ev { at, seq, kind }));
    }

    /// Schedules an application timer at an absolute time. The timer's
    /// wake is owned by the current [`Sim::set_owner`] id.
    pub fn schedule_app(&mut self, at: SimTime, token: u64) {
        let at = if at < self.now { self.now } else { at };
        let owner = self.owner;
        self.push_event(at, EvKind::AppTimer { token, owner });
    }

    /// Schedules an application timer after a delay.
    pub fn schedule_app_in(&mut self, delay: SimDuration, token: u64) {
        self.schedule_app(self.now + delay, token);
    }

    pub(crate) fn alloc_ephemeral(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = if p == u16::MAX { 40_000 } else { p + 1 };
        p
    }

    // ------------------------------------------------------------------
    // UDP
    // ------------------------------------------------------------------

    /// Binds a UDP socket on `host`. Port 0 selects an ephemeral port —
    /// this is how the paper's §3 UDP client multiplexes queries over many
    /// independent source ports.
    pub fn udp_bind(&mut self, host: HostId, port: u16) -> SockId {
        let port = if port == 0 { self.alloc_ephemeral() } else { port };
        let owner = self.owner;
        self.udp.push(UdpSock { host: host.0, port, rx: VecDeque::new(), open: true, owner });
        SockId(self.udp.len() - 1)
    }

    /// Closes a UDP socket: queued datagrams are discarded and later
    /// arrivals no longer match it. Long-running clients that bind an
    /// ephemeral socket per query must close them, or a wrapped ephemeral
    /// port would alias a dead socket and swallow responses.
    pub fn udp_close(&mut self, sock: SockId) {
        let s = &mut self.udp[sock.0];
        s.open = false;
        s.rx.clear();
    }

    /// The local port of a UDP socket.
    pub fn udp_local_port(&self, sock: SockId) -> u16 {
        self.udp[sock.0].port
    }

    /// Sends a datagram from `sock` to `(host, port)`; the payload is
    /// accounted under `tag` with the current attribution.
    pub fn udp_send(&mut self, sock: SockId, dst: (HostId, u16), tag: LayerTag, payload: Vec<u8>) {
        let src_sock = &self.udp[sock.0];
        let pkt = Packet {
            src: (HostId(src_sock.host), src_sock.port),
            dst,
            proto: Proto::Udp,
            seg: None,
            layers: vec![crate::packet::TaggedRange {
                tag,
                attr: self.attr,
                len: payload.len() as u32,
            }],
            payload,
            attr: self.attr,
        };
        self.send_packet(pkt);
    }

    /// Receives one queued datagram, if any.
    pub fn udp_recv(&mut self, sock: SockId) -> Option<(HostId, u16, Vec<u8>)> {
        self.udp[sock.0].rx.pop_front()
    }

    // ------------------------------------------------------------------
    // Packet transmission and delivery
    // ------------------------------------------------------------------

    pub(crate) fn send_packet(&mut self, mut pkt: Packet) {
        debug_assert_eq!(
            pkt.layers.iter().map(|r| r.len as usize).sum::<usize>(),
            pkt.payload.len(),
            "layer ranges must cover the payload exactly"
        );
        let key = (pkt.src.0 .0, pkt.dst.0 .0);
        let Some(link) = self.links.get_mut(&key) else {
            self.dropped += 1;
            return;
        };
        let cfg = link.cfg;
        // Every transmitted packet consumes wire bytes, delivered or not.
        self.meter.record(&pkt);
        let lost = self.rng.chance(cfg.loss);
        let corrupted = !lost && self.rng.chance(cfg.corrupt);
        // Corrupted TCP segments fail the checksum at the receiver and are
        // discarded there: identical to a drop for the state machine.
        let effective_drop = lost || (corrupted && pkt.proto == Proto::Tcp);
        if self.trace.is_enabled() {
            self.trace.push(PacketRecord {
                at: self.now,
                direction: format!(
                    "{}:{}->{}:{}",
                    self.hosts[pkt.src.0 .0], pkt.src.1, self.hosts[pkt.dst.0 .0], pkt.dst.1
                ),
                wire_len: pkt.wire_len(),
                attr: pkt.attr,
                summary: pkt.summary(),
                dropped: effective_drop,
            });
        }
        if effective_drop {
            self.dropped += 1;
            return;
        }
        if corrupted && !pkt.payload.is_empty() {
            // Flip one byte of a UDP datagram; decoders must tolerate it.
            let idx = self.rng.below(pkt.payload.len() as u64) as usize;
            pkt.payload[idx] ^= 0xFF;
        }
        let jitter = if cfg.jitter > SimDuration::ZERO {
            SimDuration::from_nanos(self.rng.range_u64(0, cfg.jitter.as_nanos()))
        } else {
            SimDuration::ZERO
        };
        let wire_len = pkt.wire_len();
        let link = self.links.get_mut(&key).expect("checked above");
        let arrival = link.schedule(self.now, wire_len, jitter);
        self.push_event(arrival, EvKind::Deliver(pkt));
    }

    fn deliver_udp(&mut self, pkt: Packet) {
        let dst_host = pkt.dst.0 .0;
        let dst_port = pkt.dst.1;
        let Some(idx) =
            self.udp.iter().position(|s| s.open && s.host == dst_host && s.port == dst_port)
        else {
            self.dropped += 1;
            return;
        };
        self.udp[idx].rx.push_back((pkt.src.0, pkt.src.1, pkt.payload));
        let owner = self.udp[idx].owner;
        self.wakes.push_back((Wake::UdpReadable { at: self.now, sock: SockId(idx) }, owner));
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Advances the simulation until the next application-visible event and
    /// returns it, or `None` when the simulation has run dry.
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
            let Reverse(ev) = self.heap.pop()?;
            debug_assert!(ev.at >= self.now, "time must be monotone");
            self.now = ev.at;
            match ev.kind {
                EvKind::Deliver(pkt) => match pkt.proto {
                    Proto::Udp => self.deliver_udp(pkt),
                    Proto::Tcp => self.on_tcp_segment(pkt),
                },
                EvKind::TcpDelack { conn, side, gen } => self.on_tcp_delack(conn, side, gen),
                EvKind::TcpRto { conn, side, gen } => self.on_tcp_rto(conn, side, gen),
                EvKind::AppTimer { token, owner } => {
                    return Some((Wake::AppTimer { at: self.now, token }, owner));
                }
            }
        }
    }

    /// Runs the simulation to quiescence, discarding wakes. Useful to let
    /// in-flight ACK/teardown traffic settle before reading the meter.
    pub fn drain(&mut self) {
        while self.next_wake().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            Some(Wake::UdpReadable { sock, at }) => {
                assert_eq!(sock, sb);
                assert_eq!(at, SimTime::ZERO + SimDuration::from_micros(50));
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

    #[test]
    fn past_timers_clamp_to_now() {
        let mut sim = Sim::new(5);
        sim.schedule_app(SimTime(1_000), 1);
        assert!(sim.next_wake().is_some());
        sim.schedule_app(SimTime(10), 2); // in the past now
        match sim.next_wake() {
            Some(Wake::AppTimer { at, token: 2 }) => assert_eq!(at, SimTime(1_000)),
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
        assert_eq!(cost.layers.dns, 33);
        assert_eq!(cost.layers.l4_header, 28);
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
    fn corrupted_udp_is_delivered_mangled() {
        let mut sim = Sim::new(8);
        let a = sim.add_host("a");
        let b = sim.add_host("b");
        sim.add_link(a, b, LinkConfig::localhost().corrupt(1.0));
        let sa = sim.udp_bind(a, 0);
        let sb = sim.udp_bind(b, 53);
        sim.udp_send(sa, (b, 53), LayerTag::DnsPayload, vec![0xAA; 8]);
        assert!(matches!(sim.next_wake(), Some(Wake::UdpReadable { .. })));
        let (_, _, data) = sim.udp_recv(sb).unwrap();
        assert_eq!(data.iter().filter(|&&b| b != 0xAA).count(), 1);
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
            while let Some(w) = sim.next_wake() {
                deliveries.push(w.at().as_nanos());
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
