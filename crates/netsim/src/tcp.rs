//! Deterministic byte-stream TCP over the simulated network.
//!
//! This is a protocol-shape model, not a full TCP implementation: it
//! reproduces exactly the on-wire behaviour the paper's byte/packet
//! accounting depends on — the three-way handshake (with SYN option
//! bytes), MSS-bounded segmentation, cumulative and delayed ACKs, timeout
//! retransmission with exponential backoff (go-back-N), and FIN teardown.
//! It omits congestion-window dynamics, SACK and timestamps. The MSS is
//! one constant, 1 460 bytes: an Ethernet MTU of 1 500 less the 20-byte IP
//! and TCP headers, since every link the experiments build is an Ethernet
//! path.
//!
//! Not every omission is invisible. The receiver discards any segment
//! above `rcv_nxt` (answering with an immediate duplicate ACK) instead of
//! holding it, and the sender ignores duplicate ACKs, so a segment that a
//! jittered link reorders ahead of its predecessor is only recovered by a
//! go-back-N RTO. Byte counts barely notice; page-load times do. On
//! `lossy_wifi` over seeds 1–32, DoH-h2 persistent takes 904 ms a page and
//! still takes 850 ms with loss removed, but 225 ms with jitter removed
//! (probe P1 in `ROADMAP.md`). Holding out-of-order segments is item 1
//! there.
//!
//! Every segment travels through [`Sim::send_packet`](crate::sim::Sim),
//! so headers are charged to [`LayerTag::L4Header`] per packet and payload
//! bytes keep the [`LayerTag`] (and attribution) they were written with —
//! including on retransmission, which is how a lossy link visibly inflates
//! the paper's per-resolution costs. The sender cuts each segment in one
//! walk of its send buffer: at most one MSS, ending where the attribution
//! of its first byte does, so a packet never carries two resolutions'
//! bytes. [`Sim::tcp_close`] fixes the FIN's sequence number at the end of
//! the stream written so far; the FIN goes out once the data before it has.
//!
//! A segment carries no bytes. The sender's write is the one copy a payload
//! byte makes, into the endpoint's send buffer; a segment names its bytes
//! by `seq` and length, with their per-layer counts and attribution, and
//! its arrival only moves the receiver's `rcv_nxt`. The application reads
//! with [`Sim::tcp_read`], which hands it the unread in-order bytes as one
//! slice borrowed from the peer's send buffer. So a sender keeps each byte
//! until the peer has both acknowledged and read it, and a go-back-N
//! retransmission copies nothing either.
//!
//! The application-facing API lives on [`Sim`]: [`Sim::tcp_listen`],
//! [`Sim::tcp_connect`], [`Sim::tcp_send`], [`Sim::tcp_read`] (or
//! [`Sim::tcp_recv`], which copies what it reads) and [`Sim::tcp_close`],
//! with readiness delivered through [`Wake`] events.

use crate::packet::{Body, Packet, TcpFlags, TcpSegMeta, IP_HEADER, TCP_HEADER, TCP_SYN_OPTIONS};
use crate::sim::{EvKind, HostId, ListenerId, Side, Sim, TcpHandle, Wake};
use crate::time::{SimDuration, SimTime};
use crate::trace::{LayerBytes, LayerTag};
use std::collections::VecDeque;

/// The maximum segment size of every connection: an Ethernet MTU of
/// 1 500 bytes less the IP and TCP headers, 1 460 bytes.
const MSS: usize = 1500 - IP_HEADER - TCP_HEADER;
/// Initial retransmission timeout (Linux's minimum RTO, 200 ms). Do53's
/// retransmission timer starts from it too, on the stubs' queries and on a
/// recursive resolver's upstream fetches alike.
pub const INIT_RTO: SimDuration = SimDuration(200_000_000);
/// Upper bound on the exponentially backed-off RTO (60 s).
pub(crate) const MAX_RTO: SimDuration = SimDuration(60_000_000_000);
/// Delayed-ACK timeout (Linux's default, 40 ms).
pub(crate) const DELACK: SimDuration = SimDuration(40_000_000);
/// Consecutive RTO expiries tolerated before the endpoint gives up; also
/// the most times Do53 resends one query.
pub const MAX_RETRIES: u32 = 6;
/// Sender window: at most this many MSS-sized segments in flight.
const WINDOW_SEGS: u64 = 10;

/// The timeout that follows an expired `rto`: doubled, capped at 60 s.
/// TCP's RTO and Do53's retransmission timer both back off
/// by it, so a lossy-link comparison of the two measures head-of-line
/// blocking, not a difference in how hard each side retries.
pub fn backoff(rto: SimDuration) -> SimDuration {
    (rto * 2).min(MAX_RTO)
}

/// A passive listening socket: SYNs addressed to `(host, port)` are
/// accepted on behalf of this listener.
#[derive(Debug)]
pub(crate) struct Listener {
    pub(crate) host: usize,
    pub(crate) port: u16,
    /// Wake-ownership id stamped at `tcp_listen` time; accepted server-side
    /// connection ends inherit it.
    pub(crate) owner: u64,
}

/// A run of send-buffer bytes written under one layer tag and attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaggedRange {
    tag: LayerTag,
    attr: u32,
    len: u32,
}

/// One segment's worth of a [`TaggedBuf`], as [`TaggedBuf::segment`] cuts
/// it: everything a segment carries about its payload except the bytes.
#[derive(Debug)]
struct Segment {
    /// Payload length.
    len: u32,
    /// The payload split by the tag each byte was written under.
    layers: LayerBytes,
    /// The attribution every payload byte was written under: the packet is
    /// charged to it.
    attr: u32,
}

/// A FIFO byte buffer that remembers which [`LayerTag`] and attribution
/// each byte was written under, so retransmitted segments reproduce the
/// exact layer breakdown of the original transmission.
///
/// The bytes are one contiguous `Vec` whose released prefix is dead:
/// [`TaggedBuf::push`] is the one copy a byte makes on its way in. A
/// transmission copies nothing: [`TaggedBuf::segment`] only sums the tags of
/// the bytes a segment stands for (go-back-N cuts the same bytes under the
/// same tags again), and the receiver's [`Sim::tcp_read`] borrows them in
/// place through [`TaggedBuf::bytes`]. So the sender keeps a byte until the
/// peer has both acknowledged and read it. [`TaggedBuf::advance`] only moves
/// the offset, compacting when the dead prefix outgrows the live bytes — so
/// each byte is moved at most once more over its lifetime.
///
/// A drained buffer keeps its storage only up to one segment
/// ([`TaggedBuf::release_above`]): a write that fits one segment, as every
/// steady-state DNS message does, reuses it without allocating, while a
/// multi-segment burst such as the TLS server flight is given back once it
/// is acknowledged and read instead of staying with the connection for its
/// life.
#[derive(Debug, Default)]
struct TaggedBuf {
    data: Vec<u8>,
    /// Length of the dead (acknowledged) prefix of `data`.
    head: usize,
    /// Covers exactly the live bytes `data[head..]`.
    ranges: VecDeque<TaggedRange>,
}

impl TaggedBuf {
    fn len(&self) -> usize {
        self.data.len() - self.head
    }

    fn push(&mut self, tag: LayerTag, attr: u32, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.data.extend_from_slice(bytes);
        if let Some(last) = self.ranges.back_mut() {
            if last.tag == tag && last.attr == attr {
                last.len += bytes.len() as u32;
                return;
            }
        }
        self.ranges.push_back(TaggedRange { tag, attr, len: bytes.len() as u32 });
    }

    /// Drops `n` bytes from the front (the peer acknowledged and read them).
    fn advance(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        self.head += n;
        let live = self.data.len() - self.head;
        if self.head > live {
            self.data.copy_within(self.head.., 0);
            self.data.truncate(live);
            self.head = 0;
        }
        let mut left = n as u32;
        while left > 0 {
            let front = self.ranges.front_mut().expect("ranges cover data");
            if front.len > left {
                front.len -= left;
                break;
            }
            left -= front.len;
            self.ranges.pop_front();
        }
    }

    /// Gives back the storage of a drained buffer whose capacity exceeds
    /// `keep` bytes; a non-empty or smaller buffer keeps what it has.
    fn release_above(&mut self, keep: usize) {
        if self.len() == 0 && self.data.capacity() > keep {
            *self = TaggedBuf::default();
        }
    }

    /// The `len` bytes starting `off` bytes into the buffer, in place.
    fn bytes(&self, off: usize, len: usize) -> &[u8] {
        &self.data[self.head + off..self.head + off + len]
    }

    /// Cuts the segment that starts `off` bytes into the buffer, in one walk
    /// over the ranges: at most `max` bytes, ending where the first byte's
    /// attribution run does. So a packet never mixes two resolutions' bytes:
    /// `CostMeter` charges a whole packet to one attribution.
    fn segment(&self, off: usize, max: usize) -> Segment {
        let mut seg = Segment { len: 0, layers: LayerBytes::default(), attr: 0 };
        let mut cursor = 0usize;
        for r in &self.ranges {
            let r_end = cursor + r.len as usize;
            if r_end > off {
                if seg.len == 0 {
                    seg.attr = r.attr;
                } else if r.attr != seg.attr {
                    break;
                }
                let n = (r_end - cursor.max(off)).min(max - seg.len as usize);
                seg.layers.add(r.tag, n as u64);
                seg.len += n as u32;
                if seg.len as usize == max {
                    break;
                }
            }
            cursor = r_end;
        }
        seg
    }
}

/// Connection state of one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TcpState {
    /// Server side before its listener has seen the SYN.
    Idle,
    /// Client sent its SYN, awaiting the SYN-ACK.
    SynSent,
    /// Server sent its SYN-ACK, awaiting the handshake ACK.
    SynRcvd,
    /// Handshake complete; data flows.
    Established,
    /// Our FIN is sent but not yet acknowledged.
    FinWait,
    /// Our FIN was acknowledged, or the endpoint gave up retransmitting.
    Closed,
}

/// Which of an endpoint's two timers an event is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum TimerKind {
    Delack,
    Rto,
}

/// An event key `(at, seq)`, ordered as the event queue orders them.
type Key = (SimTime, u64);

/// A key after every real one: an unarmed timer's deadline, and the
/// queued key of a timer with nothing queued.
const NEVER: Key = (SimTime(u64::MAX), u64::MAX);

/// One delayed-ACK or retransmission timer: its deadline, and the key of
/// the one event queued for it ([`NEVER`] for none). An arm draws the
/// deadline's `seq`, as an event scheduled then would. While the timer is
/// armed its event is queued at or before the deadline, and one that pops
/// early is queued again under the deadline, so the timer fires at the
/// `(at, seq)` an event queued at its arm would.
#[derive(Debug, Clone, Copy)]
struct Timer {
    deadline: Key,
    queued: Key,
}

impl Timer {
    const IDLE: Timer = Timer { deadline: NEVER, queued: NEVER };
}

/// One end of a TCP connection.
///
/// Sequence numbering is deterministic: both sides use ISN 0, the SYN
/// occupies sequence 0, stream data starts at sequence 1 and the FIN
/// consumes one sequence number after the final data byte.
#[derive(Debug)]
pub(crate) struct Endpoint {
    host: usize,
    port: u16,
    state: TcpState,
    // Send direction.
    snd_una: u64,
    snd_nxt: u64,
    /// Stream sequence of `sndbuf[0]`.
    buf_base: u64,
    /// Written bytes that the peer has not both acknowledged and read: a
    /// retransmission describes them from here, and the peer's
    /// [`Sim::tcp_read`] borrows them from here. Once drained, it keeps at
    /// most [`MSS`] bytes of storage, so a handshake flight is not carried
    /// for the connection's life.
    sndbuf: TaggedBuf,
    /// Sequence number of our FIN, fixed by [`Sim::tcp_close`] at the end of
    /// the stream written so far: nothing can be written after it.
    fin_seq: Option<u64>,
    // Receive direction.
    rcv_nxt: u64,
    /// Stream sequence of the first byte the application has not read. The
    /// bytes from here up to `rcv_nxt` (less a received FIN) are still in the
    /// peer's `sndbuf`.
    rcv_read: u64,
    fin_rcvd: bool,
    /// Segments received since the last ACK went out.
    ack_pending: u32,
    /// By [`TimerKind`]: the delayed ACK, due [`DELACK`] after a first
    /// unacknowledged segment unless an ACK goes out first, and the RTO,
    /// running `rto` long while sent data is unacknowledged.
    timers: [Timer; 2],
    // Retransmission machinery.
    rto: SimDuration,
    retries: u32,
    failed: bool,
    /// Server side: the listener that will accept this connection.
    listener: Option<ListenerId>,
    /// The [`Sim::route`] towards the peer, looked up once where the
    /// endpoint is made and kept: once present, a link's index never
    /// changes. Where that found none, each segment looks again until one
    /// does — a link may be added after `tcp_connect`.
    link: Option<usize>,
}

impl Endpoint {
    fn new(host: usize, port: u16, link: Option<usize>) -> Endpoint {
        Endpoint {
            host,
            port,
            state: TcpState::Idle,
            snd_una: 0,
            snd_nxt: 0,
            buf_base: 1,
            sndbuf: TaggedBuf::default(),
            fin_seq: None,
            rcv_nxt: 0,
            rcv_read: 1,
            fin_rcvd: false,
            ack_pending: 0,
            timers: [Timer::IDLE; 2],
            rto: INIT_RTO,
            retries: 0,
            failed: false,
            listener: None,
            link,
        }
    }

    /// Drops the send-buffer bytes that the peer has both acknowledged
    /// (below `snd_una`) and read (below `read`, its `rcv_read`).
    fn release(&mut self, read: u64) {
        let keep_from = self.snd_una.min(read).min(self.buf_base + self.sndbuf.len() as u64);
        if keep_from > self.buf_base {
            self.sndbuf.advance((keep_from - self.buf_base) as usize);
            self.sndbuf.release_above(MSS);
            self.buf_base = keep_from;
        }
    }
}

/// A simulated TCP connection: a client endpoint and a server endpoint.
#[derive(Debug)]
pub(crate) struct TcpConn {
    pub(crate) ends: [Endpoint; 2],
    /// Wake-ownership ids per side: the client side is stamped at
    /// `tcp_connect`, the server side at SYN time from its listener.
    pub(crate) owners: [u64; 2],
}

impl Sim {
    // ------------------------------------------------------------------
    // Application-facing API
    // ------------------------------------------------------------------

    /// Starts listening for connections to `(host, port)`.
    pub fn tcp_listen(&mut self, host: HostId, port: u16) -> ListenerId {
        let owner = self.owner();
        self.listeners.push(Listener { host: host.0, port, owner });
        ListenerId(self.listeners.len() - 1)
    }

    /// Opens a connection from an ephemeral port on `host` to `dst`,
    /// sending the SYN immediately. [`Wake::TcpConnected`] fires when the
    /// handshake completes; data queued before that is sent right after.
    pub fn tcp_connect(&mut self, host: HostId, dst: (HostId, u16)) -> TcpHandle {
        let port = self.alloc_ephemeral();
        let mut client = Endpoint::new(host.0, port, self.route(host, dst.0));
        client.state = TcpState::SynSent;
        // The server side's path is resolved when the SYN reaches it.
        let server = Endpoint::new(dst.0 .0, dst.1, None);
        // The server-side owner is resolved at SYN time from the listener.
        let owners = [self.owner(), 0];
        self.conns.push(TcpConn { ends: [client, server], owners });
        let conn = self.conns.len() - 1;
        self.tcp_emit_syn(conn);
        self.tcp_arm(conn, Side::Client, TimerKind::Rto);
        TcpHandle { conn, side: Side::Client }
    }

    /// Queues `data` on the connection's byte stream, accounted under
    /// `tag` with the current attribution, and transmits what the window
    /// allows. Data queued before the handshake completes is held back.
    pub fn tcp_send(&mut self, conn: TcpHandle, tag: LayerTag, data: &[u8]) {
        self.tcp_send_vectored(conn, &[(tag, data)]);
    }

    /// Queues several differently tagged byte ranges as **one** write, so
    /// they coalesce into MSS-sized segments instead of one segment per
    /// range — the on-wire shape of a real stack writing a whole TLS
    /// record (header + HTTP parts + tag) with a single `write()`.
    pub fn tcp_send_vectored(&mut self, conn: TcpHandle, parts: &[(LayerTag, &[u8])]) {
        let attr = self.attr();
        {
            let ep = self.ep_mut(conn);
            debug_assert!(ep.fin_seq.is_none(), "tcp_send after tcp_close");
            if ep.fin_seq.is_some() || ep.failed {
                return;
            }
            for (tag, data) in parts {
                ep.sndbuf.push(*tag, attr, data);
            }
        }
        self.tcp_pump(conn.conn, conn.side);
    }

    /// Hands the bytes received in order and not yet read to `f` as one
    /// slice, borrowed in place from the peer's send buffer, then consumes
    /// them; `f` sees an empty slice when there are none. Returns what `f`
    /// returns. A read sends nothing: it only lets the peer release bytes
    /// it already has acknowledged.
    pub fn tcp_read<R>(&mut self, conn: TcpHandle, f: impl FnOnce(&[u8]) -> R) -> R {
        let [client, server] = &mut self.conns[conn.conn].ends;
        let (ep, peer) = match conn.side {
            Side::Client => (client, server),
            Side::Server => (server, client),
        };
        // A received FIN takes the sequence number after the last byte.
        let end = ep.rcv_nxt - u64::from(ep.fin_rcvd);
        if end <= ep.rcv_read {
            return f(&[]);
        }
        let off = (ep.rcv_read - peer.buf_base) as usize;
        let read = f(peer.sndbuf.bytes(off, (end - ep.rcv_read) as usize));
        ep.rcv_read = end;
        peer.release(end);
        read
    }

    /// Drains and returns all bytes received in order so far: a
    /// [`Sim::tcp_read`] that copies them out.
    pub fn tcp_recv(&mut self, conn: TcpHandle) -> Vec<u8> {
        self.tcp_read(conn, <[u8]>::to_vec)
    }

    /// Closes the sending direction: a FIN follows any still-queued data.
    /// Receiving remains possible (half-close).
    pub fn tcp_close(&mut self, conn: TcpHandle) {
        let ep = self.ep_mut(conn);
        if ep.fin_seq.is_some() || ep.state == TcpState::Closed {
            return;
        }
        ep.fin_seq = Some(ep.buf_base + ep.sndbuf.len() as u64);
        self.tcp_pump(conn.conn, conn.side);
    }

    /// Whether the handshake has completed and the endpoint has not closed.
    #[cfg(test)]
    pub(crate) fn tcp_is_established(&self, conn: TcpHandle) -> bool {
        self.ep(conn).state == TcpState::Established
    }

    /// Whether the peer's FIN has been processed (EOF after draining).
    #[cfg(test)]
    pub(crate) fn tcp_fin_received(&self, conn: TcpHandle) -> bool {
        self.ep(conn).fin_rcvd
    }

    /// Whether the endpoint gave up after [`MAX_RETRIES`] retransmissions.
    pub fn tcp_has_failed(&self, conn: TcpHandle) -> bool {
        self.ep(conn).failed
    }

    /// The local port of this end of the connection.
    #[cfg(test)]
    pub(crate) fn tcp_local_port(&self, conn: TcpHandle) -> u16 {
        self.ep(conn).port
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn ep(&self, h: TcpHandle) -> &Endpoint {
        &self.conns[h.conn].ends[h.side.index()]
    }

    fn ep_mut(&mut self, h: TcpHandle) -> &mut Endpoint {
        &mut self.conns[h.conn].ends[h.side.index()]
    }

    /// Builds and transmits one segment from `side` of `conn`.
    ///
    /// Pure control segments (`data` is `None`) are attributed to the
    /// current [`Sim::attr`]; data segments keep the attribution their
    /// payload was written under, so retransmissions stay charged to the
    /// resolution that wrote the bytes.
    fn tcp_emit(
        &mut self,
        conn: usize,
        side: Side,
        flags: TcpFlags,
        seq: u64,
        data: Option<Segment>,
    ) {
        let attr = data.as_ref().map_or(self.attr(), |d| d.attr);
        let (len, layers) = data.map(|d| (d.len, d.layers)).unwrap_or_default();
        let (src, dst, ack, link) = {
            let c = &mut self.conns[conn];
            let ack = if flags.ack { c.ends[side.index()].rcv_nxt } else { 0 };
            if flags.ack {
                // Anything carrying an ACK satisfies a pending delayed ACK.
                let ep = &mut c.ends[side.index()];
                ep.ack_pending = 0;
                ep.timers[TimerKind::Delack as usize].deadline = NEVER;
            }
            let s = &c.ends[side.index()];
            let d = &c.ends[side.peer().index()];
            ((HostId(s.host), s.port), (HostId(d.host), d.port), ack, s.link)
        };
        let link = link.or_else(|| {
            let found = self.route(src.0, dst.0);
            self.conns[conn].ends[side.index()].link = found;
            found
        });
        let options_len = if flags.syn { TCP_SYN_OPTIONS } else { 0 };
        let body = Body::Segment(TcpSegMeta { conn, seq, ack, len, flags, options_len });
        self.send_packet(Packet { src, dst, body, layers, attr }, link);
    }

    fn tcp_emit_syn(&mut self, conn: usize) {
        self.conns[conn].ends[Side::Client.index()].snd_nxt = 1;
        let flags = TcpFlags { syn: true, ..Default::default() };
        self.tcp_emit(conn, Side::Client, flags, 0, None);
    }

    fn tcp_emit_synack(&mut self, conn: usize) {
        self.conns[conn].ends[Side::Server.index()].snd_nxt = 1;
        let flags = TcpFlags { syn: true, ack: true, ..Default::default() };
        self.tcp_emit(conn, Side::Server, flags, 0, None);
    }

    /// Emits a pure ACK (consumes no sequence space).
    fn tcp_emit_ack(&mut self, conn: usize, side: Side) {
        let seq = self.conns[conn].ends[side.index()].snd_nxt;
        let flags = TcpFlags { ack: true, ..Default::default() };
        self.tcp_emit(conn, side, flags, seq, None);
    }

    /// Transmits as much queued data (and, once drained, a queued FIN) as
    /// the in-flight window allows.
    fn tcp_pump(&mut self, conn: usize, side: Side) {
        loop {
            let (flags, seq, data) = {
                let ep = &mut self.conns[conn].ends[side.index()];
                if !matches!(ep.state, TcpState::Established | TcpState::FinWait) {
                    return;
                }
                let seq = ep.snd_nxt;
                let buf_end = ep.buf_base + ep.sndbuf.len() as u64;
                if seq < buf_end && seq < ep.snd_una + WINDOW_SEGS * MSS as u64 {
                    let data = ep.sndbuf.segment((seq - ep.buf_base) as usize, MSS);
                    ep.snd_nxt += u64::from(data.len);
                    (TcpFlags { ack: true, ..Default::default() }, seq, Some(data))
                } else if ep.fin_seq == Some(seq) {
                    // The first FIN, or one resent after a go-back-N rewind.
                    ep.state = TcpState::FinWait;
                    ep.snd_nxt += 1;
                    (TcpFlags { fin: true, ack: true, ..Default::default() }, seq, None)
                } else {
                    return;
                }
            };
            self.tcp_emit(conn, side, flags, seq, data);
            self.tcp_arm(conn, side, TimerKind::Rto);
        }
    }

    // ------------------------------------------------------------------
    // Segment reception (called from the event loop)
    // ------------------------------------------------------------------

    pub(crate) fn on_tcp_segment(&mut self, seg: TcpSegMeta, dst: (HostId, u16)) {
        let side = {
            let server = &self.conns[seg.conn].ends[Side::Server.index()];
            if server.host == dst.0 .0 && server.port == dst.1 {
                Side::Server
            } else {
                Side::Client
            }
        };
        if seg.flags.syn {
            if seg.flags.ack {
                self.on_tcp_synack(seg.conn, side, &seg);
            } else {
                self.on_tcp_syn(seg.conn, side, &seg);
            }
            return;
        }
        self.on_tcp_established_segment(seg.conn, side, &seg);
    }

    /// A client SYN arriving at the server side of `conn`.
    fn on_tcp_syn(&mut self, conn: usize, side: Side, seg: &TcpSegMeta) {
        if side != Side::Server {
            self.stats.dropped += 1;
            return;
        }
        let state = self.conns[conn].ends[Side::Server.index()].state;
        match state {
            TcpState::Idle => {
                let (host, port, peer_host) = {
                    let c = &self.conns[conn];
                    let s = &c.ends[Side::Server.index()];
                    (s.host, s.port, c.ends[Side::Client.index()].host)
                };
                let Some(lid) =
                    self.listeners.iter().position(|l| l.host == host && l.port == port)
                else {
                    // Nothing is listening; the client retries, then fails.
                    self.stats.dropped += 1;
                    return;
                };
                let link = self.route(HostId(host), HostId(peer_host));
                let listener_owner = self.listeners[lid].owner;
                {
                    let c = &mut self.conns[conn];
                    c.owners[Side::Server.index()] = listener_owner;
                    let ep = &mut c.ends[Side::Server.index()];
                    ep.link = link;
                    ep.listener = Some(ListenerId(lid));
                    ep.state = TcpState::SynRcvd;
                    ep.rcv_nxt = seg.seq + 1;
                }
                self.tcp_emit_synack(conn);
                self.tcp_arm(conn, Side::Server, TimerKind::Rto);
            }
            // Our SYN-ACK was lost; the client retransmitted its SYN.
            TcpState::SynRcvd => self.tcp_emit_synack(conn),
            // Stale duplicate SYN on an established connection.
            _ => self.tcp_emit_ack(conn, Side::Server),
        }
    }

    /// The server SYN-ACK arriving at the client side of `conn`.
    fn on_tcp_synack(&mut self, conn: usize, side: Side, seg: &TcpSegMeta) {
        if side != Side::Client {
            self.stats.dropped += 1;
            return;
        }
        let completed = {
            let ep = &mut self.conns[conn].ends[Side::Client.index()];
            if ep.state == TcpState::SynSent {
                ep.rcv_nxt = seg.seq + 1;
                ep.snd_una = ep.snd_una.max(seg.ack);
                ep.state = TcpState::Established;
                ep.retries = 0;
                ep.rto = INIT_RTO;
                true
            } else {
                false
            }
        };
        if completed {
            self.tcp_cancel(conn, Side::Client, TimerKind::Rto);
            self.tcp_emit_ack(conn, Side::Client);
            let owner = self.conns[conn].owners[Side::Client.index()];
            self.wakes.push_back((
                Wake::TcpConnected { conn: TcpHandle { conn, side: Side::Client } },
                owner,
            ));
            self.tcp_pump(conn, Side::Client);
        } else {
            // Duplicate SYN-ACK: our handshake ACK was lost. Re-ACK.
            self.tcp_emit_ack(conn, Side::Client);
        }
    }

    /// ACK / data / FIN processing on an engaged endpoint.
    fn on_tcp_established_segment(&mut self, conn: usize, side: Side, seg: &TcpSegMeta) {
        if self.conns[conn].ends[side.index()].state == TcpState::Idle {
            self.stats.dropped += 1;
            return;
        }
        if seg.flags.ack {
            self.on_tcp_ack(conn, side, seg.ack);
        }
        let mut readable = false;
        let mut fin = false;
        let mut ack_now = false;
        let mut need_delack = false;
        {
            let ep = &mut self.conns[conn].ends[side.index()];
            let len = u64::from(seg.len);
            let seg_end = seg.seq + len;
            if len > 0 {
                if seg.seq > ep.rcv_nxt {
                    // A hole: discard and re-assert what we are missing.
                    ack_now = true;
                } else if seg_end <= ep.rcv_nxt {
                    // Pure duplicate (our ACK was probably lost).
                    ack_now = true;
                } else {
                    // In order, possibly overlapping already-received bytes:
                    // they become readable where the sender keeps them.
                    ep.rcv_nxt = seg_end;
                    readable = true;
                    ep.ack_pending += 1;
                    if ep.ack_pending >= 2 {
                        ack_now = true;
                    } else {
                        need_delack = true;
                    }
                }
            }
            if seg.flags.fin {
                // The FIN sits one past any payload in the same segment.
                if seg_end == ep.rcv_nxt && !ep.fin_rcvd {
                    ep.rcv_nxt += 1;
                    ep.fin_rcvd = true;
                    fin = true;
                }
                // FINs are always ACKed immediately (dup or out-of-order
                // FINs provoke a dup-ACK that resynchronises the peer).
                ack_now = true;
            }
        }
        let owner = self.conns[conn].owners[side.index()];
        if readable {
            self.wakes.push_back((Wake::TcpReadable { conn: TcpHandle { conn, side } }, owner));
        }
        if fin {
            self.wakes.push_back((Wake::TcpFin { conn: TcpHandle { conn, side } }, owner));
        }
        if ack_now {
            self.tcp_emit_ack(conn, side);
        } else if need_delack {
            self.tcp_arm(conn, side, TimerKind::Delack);
        }
    }

    /// Cumulative-ACK bookkeeping for the sending direction of `side`.
    fn on_tcp_ack(&mut self, conn: usize, side: Side, ackno: u64) {
        let mut accepted = None;
        let advanced = {
            let read = self.conns[conn].ends[side.peer().index()].rcv_read;
            let ep = &mut self.conns[conn].ends[side.index()];
            if ackno <= ep.snd_una {
                false
            } else {
                // Old in-flight segments can be ACKed after a go-back-N
                // rewind, so the ACK may run past snd_nxt; trust it.
                let new_una = ackno;
                ep.snd_una = new_una;
                ep.release(read);
                ep.snd_nxt = ep.snd_nxt.max(new_una);
                ep.retries = 0;
                ep.rto = INIT_RTO;
                if ep.state == TcpState::SynRcvd {
                    ep.state = TcpState::Established;
                    accepted = ep.listener;
                }
                if ep.state == TcpState::FinWait && ep.fin_seq.is_some_and(|fs| new_una > fs) {
                    ep.state = TcpState::Closed;
                }
                true
            }
        };
        if !advanced {
            return;
        }
        let outstanding = {
            let ep = &self.conns[conn].ends[side.index()];
            ep.snd_una < ep.snd_nxt
        };
        // Restart the RTO from now, or stop it.
        self.tcp_cancel(conn, side, TimerKind::Rto);
        if outstanding {
            self.tcp_arm(conn, side, TimerKind::Rto);
        }
        if let Some(listener) = accepted {
            let owner = self.conns[conn].owners[side.index()];
            self.wakes
                .push_back((Wake::TcpAccepted { listener, conn: TcpHandle { conn, side } }, owner));
        }
        // The window slid (or the handshake completed): send more.
        self.tcp_pump(conn, side);
    }

    // ------------------------------------------------------------------
    // Timers (called from the event loop)
    // ------------------------------------------------------------------

    fn timer(&mut self, conn: usize, side: Side, kind: TimerKind) -> &mut Timer {
        &mut self.conns[conn].ends[side.index()].timers[kind as usize]
    }

    /// Arms `kind` to fire [`DELACK`] or the endpoint's `rto` from now,
    /// unless it is already armed. An event is queued only if none is
    /// queued at or before the deadline.
    fn tcp_arm(&mut self, conn: usize, side: Side, kind: TimerKind) {
        let ep = &self.conns[conn].ends[side.index()];
        if ep.timers[kind as usize].deadline != NEVER {
            return;
        }
        let delay = if kind == TimerKind::Rto { ep.rto } else { DELACK };
        let key = (self.now() + delay, self.draw_seq());
        let timer = self.timer(conn, side, kind);
        timer.deadline = key;
        if timer.queued > key {
            timer.queued = key;
            self.push_at(key.0, key.1, EvKind::TcpTimer { conn, side, kind });
        }
    }

    fn tcp_cancel(&mut self, conn: usize, side: Side, kind: TimerKind) {
        self.timer(conn, side, kind).deadline = NEVER;
    }

    /// A timer's event popped at `key`: it fires the timer at its deadline,
    /// is queued again under a later one, and otherwise does nothing.
    pub(crate) fn on_tcp_timer(&mut self, conn: usize, side: Side, kind: TimerKind, key: Key) {
        let timer = self.timer(conn, side, kind);
        if timer.queued != key {
            self.stats.tcp_timers_stale += 1;
        } else if timer.deadline == key {
            *timer = Timer::IDLE;
            match kind {
                // Armed at a first unacknowledged segment, and cancelled by
                // any ACK sent since: there is always one to send.
                TimerKind::Delack => self.tcp_emit_ack(conn, side),
                TimerKind::Rto => self.on_tcp_rto(conn, side),
            }
        } else {
            debug_assert!(timer.deadline > key, "a timer's event popped after its deadline");
            let (at, seq) = timer.deadline;
            timer.queued = timer.deadline;
            self.stats.tcp_timers_stale += 1;
            if (at, seq) != NEVER {
                self.push_at(at, seq, EvKind::TcpTimer { conn, side, kind });
            }
        }
    }

    fn on_tcp_rto(&mut self, conn: usize, side: Side) {
        self.stats.tcp_rtos_fired += 1;
        let ep = &mut self.conns[conn].ends[side.index()];
        if ep.snd_una >= ep.snd_nxt {
            return;
        }
        if ep.retries >= MAX_RETRIES {
            ep.failed = true;
            ep.state = TcpState::Closed;
            return;
        }
        ep.retries += 1;
        ep.rto = backoff(ep.rto);
        match ep.state {
            TcpState::SynSent => self.tcp_emit_syn(conn),
            TcpState::SynRcvd => self.tcp_emit_synack(conn),
            // Go-back-N: rewind and resend from the first unacknowledged
            // byte; the pump re-arms the timer.
            TcpState::Established | TcpState::FinWait => {
                ep.snd_nxt = ep.snd_una;
                self.tcp_pump(conn, side);
                return;
            }
            TcpState::Idle | TcpState::Closed => return,
        }
        self.tcp_arm(conn, side, TimerKind::Rto);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "TCP tests drive the event loop directly, below any Driver"
)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::{Sim, Wake};
    use crate::time::SimDuration;

    fn two_hosts(seed: u64, cfg: LinkConfig) -> (Sim, HostId, HostId) {
        let mut sim = Sim::new(seed);
        let a = sim.add_host("client");
        let b = sim.add_host("server");
        sim.add_link(a, b, cfg);
        (sim, a, b)
    }

    /// Drives the sim until `pred` matches a wake; panics when it runs dry.
    fn wait_for(sim: &mut Sim, mut pred: impl FnMut(&Wake) -> bool) -> Wake {
        while let Some(w) = sim.next_wake() {
            if pred(&w) {
                return w;
            }
        }
        panic!("simulation ran dry before the expected wake");
    }

    #[test]
    fn handshake_is_exactly_three_packets() {
        let (mut sim, a, b) = two_hosts(1, LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        let connected = wait_for(&mut sim, |w| matches!(w, Wake::TcpConnected { .. }));
        assert!(matches!(connected, Wake::TcpConnected { conn, .. } if conn == client));
        wait_for(&mut sim, |w| matches!(w, Wake::TcpAccepted { .. }));
        sim.drain();
        let total = sim.meter.total();
        // SYN (60 B) + SYN-ACK (60 B) + ACK (40 B), nothing else.
        assert_eq!(total.packets, 3);
        assert_eq!(total.bytes, 60 + 60 + 40);
        assert_eq!(total.layers.get(LayerTag::L4Header), 160);
        assert!(sim.tcp_is_established(client));
    }

    #[test]
    fn accept_wake_names_the_right_listener() {
        let (mut sim, a, b) = two_hosts(2, LinkConfig::localhost());
        let other = sim.tcp_listen(b, 80);
        let dns = sim.tcp_listen(b, 853);
        sim.tcp_connect(a, (b, 853));
        let accepted = wait_for(&mut sim, |w| matches!(w, Wake::TcpAccepted { .. }));
        match accepted {
            Wake::TcpAccepted { listener, conn, .. } => {
                assert_eq!(listener, dns);
                assert_ne!(listener, other);
                assert_eq!(conn.side, Side::Server);
                assert_eq!(sim.tcp_local_port(conn), 853);
            }
            other => panic!("unexpected wake {other:?}"),
        }
    }

    /// The contract `TcpHandle::index` users build on: one index per
    /// connection, shared by both ends, counted up from 0 and never
    /// handed out again.
    #[test]
    fn tcp_handle_indices_are_dense_shared_and_never_reused() {
        let (mut sim, a, b) = two_hosts(6, LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let accept = |sim: &mut Sim| match wait_for(sim, |w| matches!(w, Wake::TcpAccepted { .. }))
        {
            Wake::TcpAccepted { conn, .. } => conn,
            _ => unreachable!(),
        };
        let first = sim.tcp_connect(a, (b, 853));
        let second = sim.tcp_connect(a, (b, 853));
        assert_eq!((first.index(), second.index()), (0, 1));
        let (first_server, second_server) = (accept(&mut sim), accept(&mut sim));
        assert_eq!(first_server.index(), first.index());
        assert_eq!(second_server.index(), second.index());
        assert_eq!(first_server.side, Side::Server);
        // Close the first connection at both ends: its index is not freed.
        sim.tcp_close(first);
        sim.tcp_close(first_server);
        sim.drain();
        assert!(sim.tcp_fin_received(first) && sim.tcp_fin_received(first_server));
        let third = sim.tcp_connect(a, (b, 853));
        assert_eq!(third.index(), 2, "a closed connection keeps its index");
        assert_eq!(accept(&mut sim).index(), 2);
    }

    #[test]
    fn stream_round_trip_preserves_bytes() {
        let (mut sim, a, b) = two_hosts(3, LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        let request: Vec<u8> = (0u16..600).map(|i| (i % 251) as u8).collect();
        sim.tcp_send(client, LayerTag::DnsPayload, &request);
        let server = match wait_for(&mut sim, |w| matches!(w, Wake::TcpAccepted { .. })) {
            Wake::TcpAccepted { conn, .. } => conn,
            _ => unreachable!(),
        };
        let mut got = Vec::new();
        while got.len() < request.len() {
            wait_for(&mut sim, |w| matches!(w, Wake::TcpReadable { .. }));
            got.extend(sim.tcp_recv(server));
        }
        assert_eq!(got, request);
        // Server answers, then both sides close.
        sim.tcp_send(server, LayerTag::DnsPayload, &[7; 120]);
        wait_for(&mut sim, |w| matches!(w, Wake::TcpReadable { conn, .. } if *conn == client));
        assert_eq!(sim.tcp_recv(client), vec![7; 120]);
        sim.tcp_close(client);
        sim.tcp_close(server);
        wait_for(&mut sim, |w| matches!(w, Wake::TcpFin { conn, .. } if *conn == server));
        sim.drain();
        assert!(sim.tcp_fin_received(client));
        assert!(sim.tcp_fin_received(server));
        assert_eq!(sim.dropped_packets(), 0);
    }

    #[test]
    fn segments_are_at_most_one_mss() {
        let (mut sim, a, b) = two_hosts(4, LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        wait_for(&mut sim, |w| matches!(w, Wake::TcpConnected { .. }));
        // 4000 B at the 1460 B MSS → segments of 1460, 1460, 1080,
        // each read on its own wake.
        sim.tcp_send(client, LayerTag::DnsPayload, &[0xDB; 4000]);
        let mut data_lens = Vec::new();
        while let Some(wake) = sim.next_wake() {
            if let Wake::TcpReadable { conn } = wake {
                data_lens.push(sim.tcp_recv(conn).len());
            }
        }
        assert_eq!(data_lens, vec![1460, 1460, 1080]);
        let total = sim.meter.total();
        assert_eq!(total.layers.get(LayerTag::DnsPayload), 4000);
        // Raw DNS over TCP: every non-payload byte is transport header.
        assert_eq!(
            total.bytes,
            total.layers.get(LayerTag::DnsPayload) + total.layers.get(LayerTag::L4Header)
        );
    }

    #[test]
    fn a_drained_send_buffer_keeps_at_most_one_segment() {
        let (mut sim, a, b) = two_hosts(4, LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        wait_for(&mut sim, |w| matches!(w, Wake::TcpConnected { .. }));
        let sndbuf =
            |sim: &Sim| (sim.ep(client).sndbuf.len(), sim.ep(client).sndbuf.data.capacity());
        // The sender keeps a byte until the server has read it too.
        let run_dry_reading = |sim: &mut Sim| {
            while let Some(wake) = sim.next_wake() {
                if let Wake::TcpReadable { conn } = wake {
                    sim.tcp_read(conn, |_| ());
                }
            }
        };
        // A burst of three segments, like a TLS server flight: once it is
        // acknowledged and read, its storage goes with it.
        sim.tcp_send(client, LayerTag::Tls, &[1; 3000]);
        run_dry_reading(&mut sim);
        let (len, cap) = sndbuf(&sim);
        assert_eq!(len, 0, "everything was acknowledged");
        assert!(cap <= MSS, "a drained buffer kept {cap} B");
        // A write that fits one segment keeps its storage for the next one.
        sim.tcp_send(client, LayerTag::DnsPayload, &[2; 200]);
        run_dry_reading(&mut sim);
        let (len, cap) = sndbuf(&sim);
        assert_eq!(len, 0);
        assert!(cap > 0, "a one-segment buffer is reused, not reallocated per write");
    }

    /// Reads that come late see the stream that was written. On a lossy,
    /// jittered (so reordering) link, both ends write random-sized, randomly
    /// tagged chunks at random instants, then close, and read at random
    /// instants of their own — often after the ACK for the bytes returned,
    /// and after a go-back-N rewind. What each end reads, concatenated, is
    /// what the other wrote. Once the run is dry and everything is read, both
    /// send buffers are empty and keep at most one MSS of storage, each end
    /// has seen the peer's FIN exactly once, and each endpoint is closed
    /// with its own FIN acknowledged.
    #[test]
    fn late_reads_see_the_written_stream() {
        const TAGS: [LayerTag; 4] =
            [LayerTag::Tls, LayerTag::HttpHeader, LayerTag::HttpBody, LayerTag::DnsPayload];
        let ms = SimDuration::from_millis;
        let (mut acked_first, mut after_rto) = (0, 0);
        for seed in 1..=30u64 {
            let mut rng = crate::rng::SimRng::new(0x1a7e ^ seed);
            let (mut sim, a, b) = two_hosts(seed, LinkConfig::lossy_wifi().loss(0.05));
            sim.tcp_listen(b, 853);
            let client = sim.tcp_connect(a, (b, 853));
            let ends = [client, TcpHandle { conn: client.conn, side: Side::Server }];
            // Tokens: `side * 3 + {0: write, 1: read, 2: close}`.
            for side in 0..2u64 {
                for _ in 0..rng.range_u64(10, 40) {
                    sim.schedule_app(SimTime::ZERO + ms(rng.below(2000)), side * 3);
                    sim.schedule_app(SimTime::ZERO + ms(rng.below(3000)), side * 3 + 1);
                }
                sim.schedule_app(SimTime::ZERO + ms(2000), side * 3 + 2);
            }
            let (mut written, mut read) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
            let (mut rtos_seen, mut fins) = ([0; 2], [0; 2]);
            let mut late_read = |sim: &mut Sim, side: usize, read: &mut [Vec<u8>; 2]| {
                let (ep, peer) = (sim.ep(ends[side]), sim.ep(ends[1 - side]));
                if ep.rcv_nxt - u64::from(ep.fin_rcvd) > ep.rcv_read {
                    acked_first += usize::from(peer.snd_una > ep.rcv_read);
                    after_rto += usize::from(sim.stats.tcp_rtos_fired > rtos_seen[side]);
                }
                rtos_seen[side] = sim.stats.tcp_rtos_fired;
                sim.tcp_read(ends[side], |bytes| read[side].extend_from_slice(bytes));
            };
            while let Some(wake) = sim.next_wake() {
                let token = match wake {
                    Wake::AppTimer { token } => token,
                    Wake::TcpFin { conn } => {
                        fins[conn.side.index()] += 1;
                        continue;
                    }
                    _ => continue,
                };
                let side = (token / 3) as usize;
                match token % 3 {
                    0 => {
                        let len = if rng.chance(0.2) { rng.below(5000) } else { rng.below(200) };
                        let chunk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                        sim.set_attr(rng.below(3) as u32);
                        sim.tcp_send(ends[side], TAGS[rng.below(4) as usize], &chunk);
                        written[side].extend_from_slice(&chunk);
                    }
                    1 => late_read(&mut sim, side, &mut read),
                    _ => sim.tcp_close(ends[side]),
                }
            }
            for side in 0..2 {
                late_read(&mut sim, side, &mut read);
            }
            for side in 0..2 {
                assert!(!sim.tcp_has_failed(ends[side]), "seed {seed}: side {side} gave up");
                assert!(read[side] == written[1 - side], "seed {seed}: side {side} misread");
                let ep = sim.ep(ends[side]);
                let cap = ep.sndbuf.data.capacity();
                assert!(ep.sndbuf.len() == 0, "seed {seed}: side {side} kept bytes");
                assert!(cap <= MSS, "seed {seed}: side {side} kept {cap} B");
                assert_eq!(fins[side], 1, "seed {seed}: side {side} saw {} FINs", fins[side]);
                assert_eq!(ep.state, TcpState::Closed, "seed {seed}: side {side}");
                let fin = ep.fin_seq.expect("closed at 2 s");
                assert!(ep.snd_una > fin, "seed {seed}: side {side}'s FIN is unacknowledged");
            }
        }
        assert!(acked_first > 250 && after_rto > 200, "{acked_first} {after_rto}");
    }

    #[test]
    fn syn_retransmits_with_backoff_then_fails() {
        let (mut sim, a, b) = two_hosts(5, LinkConfig::localhost().loss(1.0));
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        assert!(sim.next_wake().is_none(), "no wake can arrive on a dead link");
        // Original SYN plus MAX_RETRIES retransmissions, all charged.
        assert_eq!(sim.meter.total().packets, 1 + MAX_RETRIES as u64);
        assert!(sim.tcp_has_failed(client));
        assert!(!sim.tcp_is_established(client));
        // Backoff: 200ms + 400ms + ... + 12.8s before the final expiry.
        let elapsed = sim.now().as_nanos();
        assert!(elapsed >= 12_600_000_000, "elapsed {elapsed}");
    }

    #[test]
    fn connect_to_unbound_port_fails_after_retries() {
        let (mut sim, a, b) = two_hosts(6, LinkConfig::localhost());
        // No listener on 853.
        let client = sim.tcp_connect(a, (b, 853));
        sim.drain();
        assert!(sim.tcp_has_failed(client));
        assert_eq!(sim.dropped_packets(), (1 + MAX_RETRIES) as u64);
    }

    #[test]
    fn lost_data_is_retransmitted_and_counted() {
        // Client → server drops half the segments; the reverse path is
        // clean so ACKs always return.
        let mut sim = Sim::new(42);
        let a = sim.add_host("client");
        let b = sim.add_host("server");
        sim.add_link_asymmetric(a, b, LinkConfig::localhost().loss(0.5), LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        let payload = vec![0x5A; 6000]; // 5 segments at MSS 1460
        sim.tcp_send(client, LayerTag::DnsPayload, &payload);
        let server = match wait_for(&mut sim, |w| matches!(w, Wake::TcpAccepted { .. })) {
            Wake::TcpAccepted { conn, .. } => conn,
            _ => unreachable!(),
        };
        let mut got = Vec::new();
        while got.len() < payload.len() {
            wait_for(&mut sim, |w| matches!(w, Wake::TcpReadable { .. }));
            got.extend(sim.tcp_recv(server));
        }
        assert_eq!(got, payload);
        sim.drain();
        let total = sim.meter.total();
        // Retransmissions inflate the DNS-layer byte count past the
        // logical stream length: the meter sees every wire copy.
        assert!(
            total.layers.get(LayerTag::DnsPayload) > 6000,
            "dns bytes {}",
            total.layers.get(LayerTag::DnsPayload)
        );
        assert!(sim.dropped_packets() > 0);
    }

    #[test]
    fn single_segment_is_acked_after_the_delayed_ack_timeout() {
        let (mut sim, a, b) = two_hosts(8, LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        wait_for(&mut sim, |w| matches!(w, Wake::TcpConnected { .. }));
        let sent_at = sim.now();
        sim.tcp_send(client, LayerTag::DnsPayload, &[1; 100]);
        sim.drain();
        // 3 handshake + 1 data + 1 delayed ACK; the 200 ms RTO never fired
        // (draining still pops its cancelled event, so `now` ends past both).
        assert_eq!(sim.meter.total().packets, 5);
        assert!(sim.now() - sent_at >= DELACK, "ACK arrived before the delack timeout");
        let client_ep = &sim.conns[client.conn].ends[Side::Client.index()];
        assert_eq!(client_ep.retries, 0, "the data segment was retransmitted");
    }

    /// Both timers of both ends fire at the `(at, seq)` of a reference that
    /// queues one event `(now + delay, seq)` per arm and fires it only if
    /// no cancel or later arm of its timer came between. Seeded random arm /
    /// restart / cancel sequences, with RTOs backed off and reset so that a
    /// re-arm can fall before the queued event, are interleaved with UDP
    /// deliveries and application timers on a 40 ms grid, so that many keys
    /// share an instant; each application timer that pops runs a few steps.
    #[test]
    fn timers_fire_where_one_event_per_arm_would() {
        let mut rng = crate::rng::SimRng::new(0x7153);
        let (mut fired, mut requeued, mut superseded) = (0, 0, 0);
        for schedule in 0..1000 {
            // No serialisation and no jitter: a datagram lands `DELACK` on.
            let link = LinkConfig { latency: DELACK, ..LinkConfig::localhost() };
            let (mut sim, a, b) = two_hosts(schedule, link);
            let sock = sim.udp_bind(a, 0);
            sim.udp_bind(b, 53);
            // A connection from `a` to itself, where no link goes: its ACKs
            // are dropped unsent, and an idle endpoint's RTO resends nothing.
            let ends = [1, 2].map(|port| Endpoint::new(a.0, port, None));
            sim.conns.push(TcpConn { ends, owners: [0, 0] });
            // The reference's events, a timer's tagged with its `(side, kind)`,
            // and the key of each timer's live arm.
            let mut queue: std::collections::BTreeMap<Key, Option<(usize, usize)>> =
                [((SimTime::ZERO, 0), None)].into();
            let (mut seq, mut live, mut ticks) = (1, [[None; 2]; 2], rng.range_u64(20, 80));
            sim.schedule_app(SimTime::ZERO, 0);
            while let Some(ev) = sim.pop_event() {
                let key = (ev.at, ev.seq);
                let timer = match ev.kind {
                    EvKind::TcpTimer { side, kind, .. } => Some((side.index(), kind as usize)),
                    _ => None,
                };
                // A timer re-armed before its queued event leaves this one behind.
                superseded += usize::from(
                    timer.is_some_and(|(s, k)| sim.conns[0].ends[s].timers[k].queued != key),
                );
                let stats = sim.stats;
                let app = sim.process(ev).is_some();
                requeued += sim.stats.events_scheduled - stats.events_scheduled;
                if sim.stats.tcp_timers_stale > stats.tcp_timers_stale {
                    continue;
                }
                let want = loop {
                    match queue.pop_first() {
                        Some((key, Some((s, k)))) if live[s][k] == Some(key) => {
                            live[s][k] = None;
                            break Some((key, Some((s, k))));
                        }
                        Some((_, Some(_))) => {}
                        other => break other,
                    }
                };
                assert_eq!(Some((key, timer)), want, "schedule {schedule}");
                fired += usize::from(timer.is_some());
                if !app {
                    continue;
                }
                let now = sim.now();
                ticks = ticks.saturating_sub(1);
                // Arm, cancel, restart, an application timer or a datagram;
                // the last step keeps the run going while ticks are left.
                for step in (0..=rng.below(5)).rev() {
                    let side = if rng.chance(0.5) { Side::Client } else { Side::Server };
                    let kind = if rng.chance(0.5) { TimerKind::Delack } else { TimerKind::Rto };
                    let (s, k) = (side.index(), kind as usize);
                    let rto = [INIT_RTO, INIT_RTO * 2, INIT_RTO * 8, DELACK * rng.below(12)]
                        [rng.below(4) as usize];
                    sim.conns[0].ends[s].rto = rto;
                    let delay = if kind == TimerKind::Rto { rto } else { DELACK };
                    let later = now + DELACK * rng.below(12);
                    let op = if step == 0 && ticks > 0 { 3 } else { rng.below(5) };
                    if matches!(op, 1 | 2) {
                        sim.tcp_cancel(0, side, kind);
                        live[s][k] = None;
                    }
                    match op {
                        0 | 2 => sim.tcp_arm(0, side, kind),
                        3 => sim.schedule_app(later, 0),
                        4 => sim.udp_send(sock, (b, 53), LayerTag::DnsPayload, vec![0; 8]),
                        _ => {}
                    }
                    let (at, timer) = match op {
                        0 | 2 if live[s][k].is_none() => (now + delay, Some((s, k))),
                        3 => (later, None),
                        4 => (now + DELACK, None),
                        _ => continue,
                    };
                    if timer.is_some() {
                        live[s][k] = Some((at, seq));
                    }
                    queue.insert((at, seq), timer);
                    seq += 1;
                }
            }
            assert_eq!(live, [[None; 2]; 2], "schedule {schedule}: a timer never fired");
            assert_eq!(sim.stats.events_scheduled, sim.stats.events_popped, "schedule {schedule}");
        }
        assert!(
            fired > 5000 && requeued > 1000 && superseded > 1000,
            "{fired} {requeued} {superseded}"
        );
    }

    #[test]
    fn identical_seeds_give_identical_costs_and_wakes() {
        let run = |seed: u64| {
            let mut sim = Sim::new(seed);
            let a = sim.add_host("client");
            let b = sim.add_host("server");
            sim.add_link(
                a,
                b,
                LinkConfig::localhost().loss(0.2).jitter(SimDuration::from_micros(200)),
            );
            sim.tcp_listen(b, 853);
            let client = sim.tcp_connect(a, (b, 853));
            sim.set_attr(1);
            sim.tcp_send(client, LayerTag::DnsPayload, &[9; 5000]);
            let mut wakes = Vec::new();
            while let Some(wake) = sim.next_wake() {
                wakes.push((wake, sim.now()));
            }
            let costs = (sim.meter.cost(0), sim.meter.cost(1));
            (wakes, costs, sim.stats(), sim.dropped_packets())
        };
        assert_eq!(run(1234), run(1234));
        assert_ne!(run(1234).0, run(1235).0, "different seeds must diverge");
    }

    #[test]
    fn close_before_connect_sends_fin_after_handshake() {
        let (mut sim, a, b) = two_hosts(9, LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        sim.tcp_send(client, LayerTag::DnsPayload, &[3; 50]);
        sim.tcp_close(client);
        let fin = wait_for(&mut sim, |w| matches!(w, Wake::TcpFin { .. }));
        match fin {
            Wake::TcpFin { conn, .. } => assert_eq!(conn.side, Side::Server),
            _ => unreachable!(),
        }
        sim.drain();
        assert!(sim.tcp_fin_received(TcpHandle { conn: client.conn, side: Side::Server }));
    }

    #[test]
    fn tagged_buf_tracks_ranges_through_push_advance_segment() {
        let mut buf = TaggedBuf::default();
        buf.push(LayerTag::Tls, 1, &[1; 10]);
        buf.push(LayerTag::Tls, 1, &[2; 5]); // coalesces with the previous
        buf.push(LayerTag::HttpBody, 2, &[3; 20]);
        buf.push(LayerTag::HttpHeader, 2, &[4; 6]);
        assert_eq!(buf.len(), 41);
        assert_eq!(buf.ranges.len(), 3);

        // A segment ends where its first byte's attribution run does...
        let seg = buf.segment(12, 10);
        assert_eq!(buf.bytes(12, 3), [2; 3]);
        assert_eq!((seg.len, seg.attr), (3, 1));
        assert_eq!((seg.layers.get(LayerTag::Tls), seg.layers.total()), (3, 3));
        // ...or after `max` bytes, summing every tag it crosses.
        let seg = buf.segment(30, 8);
        assert_eq!((seg.len, seg.attr), (8, 2));
        assert_eq!(
            (seg.layers.get(LayerTag::HttpBody), seg.layers.get(LayerTag::HttpHeader)),
            (5, 3)
        );

        buf.advance(15);
        assert_eq!(buf.len(), 26);
        let seg = buf.segment(0, 1460);
        assert_eq!(buf.bytes(0, 26), [vec![3; 20], vec![4; 6]].concat());
        assert_eq!((seg.len, seg.attr), (26, 2));
        assert_eq!(
            (seg.layers.get(LayerTag::HttpBody), seg.layers.get(LayerTag::HttpHeader)),
            (20, 6)
        );
    }

    /// Random `push` / `advance` / `segment` sequences against a model that
    /// keeps `(byte, tag, attr)` per byte.
    #[test]
    fn tagged_buf_matches_a_naive_per_byte_model() {
        const TAGS: [LayerTag; 4] =
            [LayerTag::Tls, LayerTag::HttpHeader, LayerTag::HttpBody, LayerTag::DnsPayload];
        for seed in 1..=40u64 {
            let mut rng = crate::rng::SimRng::new(seed);
            let mut buf = TaggedBuf::default();
            let mut model: Vec<(u8, LayerTag, u32)> = Vec::new();
            // A segment cut earlier that a go-back-N rewind would cut again.
            let mut sent: Option<(usize, usize)> = None;
            let mut compactions = 0;
            let check_segment = |buf: &TaggedBuf,
                                 model: &[(u8, LayerTag, u32)],
                                 off: usize,
                                 max: usize| {
                let seg = buf.segment(off, max);
                let run = model[off..].iter().take_while(|b| b.2 == model[off].2).count();
                let len = max.min(run);
                let want = &model[off..off + len];
                let bytes: Vec<u8> = want.iter().map(|b| b.0).collect();
                assert_eq!(seg.len as usize, len, "seed {seed}: len of segment({off}, {max})");
                assert_eq!(buf.bytes(off, len), bytes, "seed {seed}: bytes at ({off}, {len})");
                for tag in LayerTag::ALL {
                    let n = want.iter().filter(|b| b.1 == tag).count() as u64;
                    assert_eq!(seg.layers.get(tag), n, "seed {seed}: {tag:?} of ({off}, {max})");
                }
                assert_eq!(seg.attr, model[off].2, "seed {seed}: attr of ({off}, {max})");
            };
            for _ in 0..400 {
                match rng.below(10) {
                    // Mostly small writes, mixed tags, few attributions so
                    // that runs both coalesce and break.
                    0..=3 => {
                        let len = if rng.chance(0.1) { rng.below(3000) } else { rng.below(40) };
                        let tag = TAGS[rng.below(4) as usize];
                        let attr = rng.below(3) as u32;
                        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                        buf.push(tag, attr, &bytes);
                        model.extend(bytes.iter().map(|&b| (b, tag, attr)));
                    }
                    4..=5 => {
                        let n = rng.below(model.len() as u64 + 1) as usize;
                        let dead_before = buf.head;
                        buf.advance(n);
                        model.drain(..n);
                        compactions += usize::from(buf.head < dead_before);
                        sent = sent.and_then(|(off, max)| Some((off.checked_sub(n)?, max)));
                    }
                    6..=7 if !model.is_empty() => {
                        let off = rng.below(model.len() as u64) as usize;
                        let max = 1 + rng.below((model.len() - off) as u64) as usize;
                        check_segment(&buf, &model, off, max);
                        sent = Some((off, max));
                    }
                    // What the pump cuts at the MSS.
                    8 if !model.is_empty() => {
                        let off = rng.below(model.len() as u64) as usize;
                        check_segment(&buf, &model, off, MSS);
                    }
                    // The rewind: after later pushes and ACKs of earlier
                    // bytes, cutting the same bytes again still matches.
                    _ => {
                        if let Some((off, max)) = sent {
                            check_segment(&buf, &model, off, max);
                        }
                    }
                }
                assert_eq!(buf.len(), model.len(), "seed {seed}");
                assert!(buf.head <= buf.len(), "seed {seed}: the dead prefix dominates");
            }
            assert!(compactions > 0, "seed {seed}: compaction never ran");
        }
    }

    #[test]
    fn vectored_send_coalesces_ranges_into_one_segment() {
        let (mut sim, a, b) = two_hosts(12, LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        wait_for(&mut sim, |w| matches!(w, Wake::TcpConnected { .. }));
        let before = sim.meter.total().packets;
        sim.tcp_send_vectored(
            client,
            &[
                (LayerTag::Tls, &[1; 5]),
                (LayerTag::HttpHeader, &[2; 60]),
                (LayerTag::HttpBody, &[3; 40]),
                (LayerTag::Tls, &[4; 16]),
            ],
        );
        sim.drain();
        // One data segment (plus its delayed ACK), not four.
        assert_eq!(sim.meter.total().packets, before + 2);
        let t = sim.meter.total();
        assert_eq!(t.layers.get(LayerTag::Tls), 21);
        assert_eq!(t.layers.get(LayerTag::HttpHeader), 60);
        assert_eq!(t.layers.get(LayerTag::HttpBody), 40);
    }

    #[test]
    fn per_resolution_attribution_survives_interleaving() {
        let (mut sim, a, b) = two_hosts(10, LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        wait_for(&mut sim, |w| matches!(w, Wake::TcpConnected { .. }));
        sim.set_attr(1);
        sim.tcp_send(client, LayerTag::DnsPayload, &[1; 300]);
        sim.set_attr(2);
        sim.tcp_send(client, LayerTag::DnsPayload, &[2; 400]);
        sim.drain();
        // Each resolution's data packet is charged to its own attribution.
        assert_eq!(sim.meter.cost(1).layers.get(LayerTag::DnsPayload), 300);
        assert_eq!(sim.meter.cost(2).layers.get(LayerTag::DnsPayload), 400);
    }

    #[test]
    fn coalesced_sends_never_mix_attributions() {
        // Both sends are queued while the handshake is still in flight, so
        // the whole stream is transmittable in one burst; segments must
        // still break at the attribution boundary.
        let (mut sim, a, b) = two_hosts(11, LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        sim.set_attr(1);
        sim.tcp_send(client, LayerTag::DnsPayload, &[1; 300]);
        sim.set_attr(2);
        sim.tcp_send(client, LayerTag::DnsPayload, &[2; 400]);
        sim.drain();
        assert_eq!(sim.meter.cost(1).layers.get(LayerTag::DnsPayload), 300);
        assert_eq!(sim.meter.cost(2).layers.get(LayerTag::DnsPayload), 400);
    }
}
