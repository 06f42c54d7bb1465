//! Deterministic byte-stream TCP over the simulated network.
//!
//! This is a protocol-shape model, not a full TCP implementation: it
//! reproduces exactly the on-wire behaviour the paper's byte/packet
//! accounting depends on — the three-way handshake (with SYN option
//! bytes), MSS-bounded segmentation, cumulative and delayed ACKs, timeout
//! retransmission with exponential backoff (go-back-N), and FIN teardown —
//! while omitting what the accounting cannot see (congestion-window
//! dynamics, SACK, timestamps).
//!
//! Every segment travels through [`Sim::send_packet`](crate::sim::Sim),
//! so headers are charged to [`LayerTag::L4Header`] per packet and payload
//! bytes keep the [`LayerTag`] (and attribution) they were written with —
//! including on retransmission, which is how a lossy link visibly inflates
//! the paper's per-resolution costs.
//!
//! The application-facing API lives on [`Sim`]: [`Sim::tcp_listen`],
//! [`Sim::tcp_connect`], [`Sim::tcp_send`], [`Sim::tcp_recv`] and
//! [`Sim::tcp_close`], with readiness delivered through
//! [`Wake`] events.

use crate::packet::{Packet, TcpFlags, TcpSegMeta, IP_HEADER, TCP_HEADER, TCP_SYN_OPTIONS};
use crate::sim::{EvKind, HostId, ListenerId, Side, Sim, TcpHandle, Wake};
use crate::time::SimDuration;
use crate::trace::{LayerBytes, LayerTag};
use std::collections::VecDeque;

/// Fallback MSS when no link (and hence no MTU) is configured.
const DEFAULT_MSS: usize = 1460;
/// Initial retransmission timeout (Linux's minimum RTO, 200 ms). Do53's
/// retransmission timer starts from it too.
pub const INIT_RTO: SimDuration = SimDuration(200_000_000);
/// Upper bound on the exponentially backed-off RTO (60 s).
pub const MAX_RTO: SimDuration = SimDuration(60_000_000_000);
/// Delayed-ACK timeout (Linux's default, 40 ms).
pub(crate) const DELACK: SimDuration = SimDuration(40_000_000);
/// Consecutive RTO expiries tolerated before the endpoint gives up; also
/// the most times Do53 resends one query.
pub const MAX_RETRIES: u32 = 6;
/// Sender window: at most this many MSS-sized segments in flight.
const WINDOW_SEGS: u64 = 10;

/// The timeout that follows an expired `rto`: doubled, capped at
/// [`MAX_RTO`]. TCP's RTO and Do53's retransmission timer both back off
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

/// One segment's worth of a [`TaggedBuf`], as [`TaggedBuf::slice`] cut it.
#[derive(Debug)]
struct Segment {
    bytes: Vec<u8>,
    /// `bytes` split by the tag each was written under.
    layers: LayerBytes,
    /// Attribution of the first byte: the whole packet is charged to it.
    attr: u32,
    /// Whether a later byte was written under another attribution.
    mixed_attr: bool,
}

/// A FIFO byte buffer that remembers which [`LayerTag`] and attribution
/// each byte was written under, so retransmitted segments reproduce the
/// exact layer breakdown of the original transmission.
///
/// The bytes are one contiguous `Vec` whose acknowledged prefix is dead:
/// [`TaggedBuf::push`] is the one copy a byte makes on its way in,
/// [`TaggedBuf::slice`] is the one `memcpy` per transmission (go-back-N
/// re-slices the same bytes under the same tags), and
/// [`TaggedBuf::advance`] only moves the offset, compacting when the dead
/// prefix outgrows the live bytes — so each byte is moved at most once more
/// over its lifetime.
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

    /// Drops `n` bytes from the front (they were cumulatively ACKed).
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

    /// Copies `len` bytes starting `off` bytes into the buffer, summing
    /// per tag the ranges that cover exactly those bytes.
    fn slice(&self, off: usize, len: usize) -> Segment {
        debug_assert!(off + len <= self.len());
        let bytes = self.data[self.head + off..self.head + off + len].to_vec();
        let mut layers = LayerBytes::default();
        let mut attr = None;
        let mut mixed_attr = false;
        let (start, end) = (off, off + len);
        let mut cursor = 0usize;
        for r in &self.ranges {
            let r_end = cursor + r.len as usize;
            if r_end > start && cursor < end {
                layers.add(r.tag, (r_end.min(end) - cursor.max(start)) as u64);
                mixed_attr |= *attr.get_or_insert(r.attr) != r.attr;
            }
            cursor = r_end;
            if cursor >= end {
                break;
            }
        }
        Segment { bytes, layers, attr: attr.unwrap_or(0), mixed_attr }
    }

    /// Bytes from `off` to the end of the contiguous run of ranges that
    /// share one attribution. Segments are capped at this length so a
    /// single packet never mixes two resolutions' bytes — `CostMeter`
    /// charges a whole packet to one attribution.
    fn attr_run_len(&self, off: usize) -> usize {
        let mut cursor = 0usize;
        let mut attr: Option<u32> = None;
        let mut len = 0usize;
        for r in &self.ranges {
            let r_end = cursor + r.len as usize;
            if r_end > off {
                match attr {
                    None => attr = Some(r.attr),
                    Some(a) if a != r.attr => break,
                    Some(_) => {}
                }
                len += r_end - cursor.max(off);
            }
            cursor = r_end;
        }
        len
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
    mss: usize,
    // Send direction.
    snd_una: u64,
    snd_nxt: u64,
    /// Stream sequence of `sndbuf[0]`; only unacknowledged bytes are kept.
    buf_base: u64,
    sndbuf: TaggedBuf,
    fin_queued: bool,
    fin_seq: Option<u64>,
    // Receive direction.
    rcv_nxt: u64,
    rcvbuf: Vec<u8>,
    fin_rcvd: bool,
    // Delayed-ACK machinery.
    ack_pending: u32,
    delack_armed: bool,
    delack_gen: u64,
    // Retransmission machinery.
    rto: SimDuration,
    rto_armed: bool,
    rto_gen: u64,
    retries: u32,
    failed: bool,
    /// Server side: the listener that will accept this connection.
    listener: Option<ListenerId>,
    /// The [`Sim::route`] towards the peer, looked up once where the
    /// endpoint is made ([`Sim::tcp_path`]) and kept: once present, a
    /// link's index never changes. Where that found none, each segment
    /// looks again until one does — a link may be added after
    /// `tcp_connect`.
    link: Option<usize>,
}

impl Endpoint {
    fn new(host: usize, port: u16, link: Option<usize>, mss: usize) -> Endpoint {
        Endpoint {
            host,
            port,
            state: TcpState::Idle,
            mss,
            snd_una: 0,
            snd_nxt: 0,
            buf_base: 1,
            sndbuf: TaggedBuf::default(),
            fin_queued: false,
            fin_seq: None,
            rcv_nxt: 0,
            rcvbuf: Vec::new(),
            fin_rcvd: false,
            ack_pending: 0,
            delack_armed: false,
            delack_gen: 0,
            rto: INIT_RTO,
            rto_armed: false,
            rto_gen: 0,
            retries: 0,
            failed: false,
            listener: None,
            link,
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

/// What an RTO expiry decided to do, resolved outside the borrow of the
/// endpoint that made the decision.
enum RtoAction {
    Nothing,
    ResendSyn,
    ResendSynAck,
    GoBackN,
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
        let (link, mss) = self.tcp_path(host, dst.0);
        let mut client = Endpoint::new(host.0, port, link, mss);
        client.state = TcpState::SynSent;
        // The server side's path is resolved when the SYN reaches it.
        let server = Endpoint::new(dst.0 .0, dst.1, None, DEFAULT_MSS);
        // The server-side owner is resolved at SYN time from the listener.
        let owners = [self.owner(), 0];
        self.conns.push(TcpConn { ends: [client, server], owners });
        let conn = self.conns.len() - 1;
        self.tcp_emit_syn(conn);
        self.tcp_arm_rto(conn, Side::Client);
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
            debug_assert!(!ep.fin_queued, "tcp_send after tcp_close");
            if ep.fin_queued || ep.failed {
                return;
            }
            for (tag, data) in parts {
                ep.sndbuf.push(*tag, attr, data);
            }
        }
        self.tcp_pump(conn.conn, conn.side);
    }

    /// Drains and returns all bytes received in order so far.
    pub fn tcp_recv(&mut self, conn: TcpHandle) -> Vec<u8> {
        std::mem::take(&mut self.ep_mut(conn).rcvbuf)
    }

    /// Closes the sending direction: a FIN follows any still-queued data.
    /// Receiving remains possible (half-close).
    pub fn tcp_close(&mut self, conn: TcpHandle) {
        {
            let ep = self.ep_mut(conn);
            if ep.fin_queued || matches!(ep.state, TcpState::Closed) {
                return;
            }
            ep.fin_queued = true;
        }
        self.tcp_pump(conn.conn, conn.side);
    }

    /// Whether the handshake has completed and the endpoint has not closed.
    pub fn tcp_is_established(&self, conn: TcpHandle) -> bool {
        self.ep(conn).state == TcpState::Established
    }

    /// Whether the peer's FIN has been processed (EOF after draining).
    pub fn tcp_fin_received(&self, conn: TcpHandle) -> bool {
        self.ep(conn).fin_rcvd
    }

    /// Whether the endpoint gave up after [`MAX_RETRIES`] retransmissions.
    pub fn tcp_has_failed(&self, conn: TcpHandle) -> bool {
        self.ep(conn).failed
    }

    /// The local port of this end of the connection.
    pub fn tcp_local_port(&self, conn: TcpHandle) -> u16 {
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

    /// The route `a -> b` and the MSS its link allows (MTU minus IP and
    /// TCP headers), from one route lookup; without a link, no route and
    /// [`DEFAULT_MSS`].
    fn tcp_path(&self, a: HostId, b: HostId) -> (Option<usize>, usize) {
        let link = self.route(a, b);
        let mss = link.map_or(DEFAULT_MSS, |i| {
            self.links[i].cfg.mtu.saturating_sub(IP_HEADER + TCP_HEADER).max(1)
        });
        (link, mss)
    }

    /// Builds and transmits one segment from `side` of `conn`.
    ///
    /// Pure control segments (`data` is `None`) are attributed to the
    /// current [`Sim::attr`]; data segments keep the attribution of their
    /// first payload byte, so retransmissions stay charged to the
    /// resolution that wrote the bytes.
    fn tcp_emit(
        &mut self,
        conn: usize,
        side: Side,
        flags: TcpFlags,
        seq: u64,
        data: Option<Segment>,
    ) {
        debug_assert!(
            !data.as_ref().is_some_and(|d| d.mixed_attr),
            "a segment must never span attribution boundaries"
        );
        let attr = data.as_ref().map_or(self.attr(), |d| d.attr);
        let (payload, layers) = data.map(|d| (d.bytes, d.layers)).unwrap_or_default();
        let (src, dst, ack, link) = {
            let c = &mut self.conns[conn];
            let ack = if flags.ack { c.ends[side.index()].rcv_nxt } else { 0 };
            if flags.ack {
                // Anything carrying an ACK satisfies a pending delayed ACK.
                let ep = &mut c.ends[side.index()];
                ep.ack_pending = 0;
                ep.delack_armed = false;
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
        let seg = Some(TcpSegMeta { conn, seq, ack, flags, options_len });
        self.send_packet(Packet { src, dst, seg, layers, payload, attr }, link);
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
            enum Emit {
                Data { seq: u64, data: Segment },
                Fin { seq: u64 },
            }
            let emit = {
                let ep = &mut self.conns[conn].ends[side.index()];
                if !matches!(ep.state, TcpState::Established | TcpState::FinWait) {
                    return;
                }
                let buf_end = ep.buf_base + ep.sndbuf.len() as u64;
                let window_end = ep.snd_una + WINDOW_SEGS * ep.mss as u64;
                if ep.snd_nxt < buf_end && ep.snd_nxt < window_end {
                    let off = (ep.snd_nxt - ep.buf_base) as usize;
                    let len = (buf_end - ep.snd_nxt)
                        .min(ep.mss as u64)
                        .min(ep.sndbuf.attr_run_len(off) as u64)
                        as usize;
                    let data = ep.sndbuf.slice(off, len);
                    let seq = ep.snd_nxt;
                    ep.snd_nxt += len as u64;
                    Emit::Data { seq, data }
                } else if ep.fin_seq == Some(ep.snd_nxt)
                    || (ep.fin_queued
                        && ep.fin_seq.is_none()
                        && ep.snd_nxt == buf_end
                        && ep.state == TcpState::Established)
                {
                    if ep.fin_seq.is_none() {
                        ep.fin_seq = Some(ep.snd_nxt);
                        ep.state = TcpState::FinWait;
                    }
                    let seq = ep.snd_nxt;
                    ep.snd_nxt += 1;
                    Emit::Fin { seq }
                } else {
                    return;
                }
            };
            match emit {
                Emit::Data { seq, data } => {
                    let flags = TcpFlags { ack: true, ..Default::default() };
                    self.tcp_emit(conn, side, flags, seq, Some(data));
                }
                Emit::Fin { seq } => {
                    let flags = TcpFlags { fin: true, ack: true, ..Default::default() };
                    self.tcp_emit(conn, side, flags, seq, None);
                }
            }
            self.tcp_arm_rto(conn, side);
        }
    }

    // ------------------------------------------------------------------
    // Segment reception (called from the event loop)
    // ------------------------------------------------------------------

    pub(crate) fn on_tcp_segment(&mut self, seg: TcpSegMeta, dst: (HostId, u16), payload: Vec<u8>) {
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
        self.on_tcp_established_segment(seg.conn, side, &seg, payload);
    }

    /// A client SYN arriving at the server side of `conn`.
    fn on_tcp_syn(&mut self, conn: usize, side: Side, seg: &TcpSegMeta) {
        if side != Side::Server {
            self.dropped += 1;
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
                    self.dropped += 1;
                    return;
                };
                let (link, mss) = self.tcp_path(HostId(host), HostId(peer_host));
                let listener_owner = self.listeners[lid].owner;
                {
                    let c = &mut self.conns[conn];
                    c.owners[Side::Server.index()] = listener_owner;
                    let ep = &mut c.ends[Side::Server.index()];
                    ep.link = link;
                    ep.mss = mss;
                    ep.listener = Some(ListenerId(lid));
                    ep.state = TcpState::SynRcvd;
                    ep.rcv_nxt = seg.seq + 1;
                }
                self.tcp_emit_synack(conn);
                self.tcp_arm_rto(conn, Side::Server);
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
            self.dropped += 1;
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
            self.tcp_cancel_rto(conn, Side::Client);
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
    fn on_tcp_established_segment(
        &mut self,
        conn: usize,
        side: Side,
        seg: &TcpSegMeta,
        payload: Vec<u8>,
    ) {
        if self.conns[conn].ends[side.index()].state == TcpState::Idle {
            self.dropped += 1;
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
            let len = payload.len() as u64;
            let seg_end = seg.seq + len;
            if len > 0 {
                if seg.seq > ep.rcv_nxt {
                    // A hole: discard and re-assert what we are missing.
                    ack_now = true;
                } else if seg_end <= ep.rcv_nxt {
                    // Pure duplicate (our ACK was probably lost).
                    ack_now = true;
                } else {
                    // In order, possibly overlapping already-received bytes.
                    let skip = (ep.rcv_nxt - seg.seq) as usize;
                    if skip == 0 && ep.rcvbuf.is_empty() {
                        // The usual case: the payload is moved, not copied.
                        ep.rcvbuf = payload;
                    } else {
                        ep.rcvbuf.extend_from_slice(&payload[skip..]);
                    }
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
            self.tcp_arm_delack(conn, side);
        }
    }

    /// Cumulative-ACK bookkeeping for the sending direction of `side`.
    fn on_tcp_ack(&mut self, conn: usize, side: Side, ackno: u64) {
        let mut accepted = None;
        let advanced = {
            let ep = &mut self.conns[conn].ends[side.index()];
            if ackno <= ep.snd_una {
                false
            } else {
                // Old in-flight segments can be ACKed after a go-back-N
                // rewind, so the ACK may run past snd_nxt; trust it.
                let new_una = ackno;
                let data_start = ep.snd_una.max(ep.buf_base);
                let data_end = new_una.min(ep.buf_base + ep.sndbuf.len() as u64);
                if data_end > data_start {
                    ep.sndbuf.advance((data_end - data_start) as usize);
                    ep.buf_base = data_end;
                }
                ep.snd_una = new_una;
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
        if outstanding {
            self.tcp_restart_rto(conn, side);
        } else {
            self.tcp_cancel_rto(conn, side);
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

    /// Arms the retransmission timer if it is not already running.
    fn tcp_arm_rto(&mut self, conn: usize, side: Side) {
        let now = self.now();
        let (at, gen) = {
            let ep = &mut self.conns[conn].ends[side.index()];
            if ep.rto_armed {
                return;
            }
            ep.rto_armed = true;
            ep.rto_gen += 1;
            (now + ep.rto, ep.rto_gen)
        };
        self.push_event(at, EvKind::TcpRto { conn, side, gen });
    }

    /// Restarts the retransmission timer from now (new data was ACKed).
    fn tcp_restart_rto(&mut self, conn: usize, side: Side) {
        self.conns[conn].ends[side.index()].rto_armed = false;
        self.tcp_arm_rto(conn, side);
    }

    fn tcp_cancel_rto(&mut self, conn: usize, side: Side) {
        let ep = &mut self.conns[conn].ends[side.index()];
        ep.rto_armed = false;
        ep.rto_gen += 1;
    }

    fn tcp_arm_delack(&mut self, conn: usize, side: Side) {
        let at = self.now() + DELACK;
        let gen = {
            let ep = &mut self.conns[conn].ends[side.index()];
            if ep.delack_armed {
                return;
            }
            ep.delack_armed = true;
            ep.delack_gen += 1;
            ep.delack_gen
        };
        self.push_event(at, EvKind::TcpDelack { conn, side, gen });
    }

    pub(crate) fn on_tcp_delack(&mut self, conn: usize, side: Side, gen: u64) {
        let fire = {
            let ep = &mut self.conns[conn].ends[side.index()];
            if !ep.delack_armed || ep.delack_gen != gen {
                self.stats.tcp_timers_stale += 1;
                false
            } else {
                ep.delack_armed = false;
                ep.ack_pending > 0
            }
        };
        if fire {
            self.tcp_emit_ack(conn, side);
        }
    }

    pub(crate) fn on_tcp_rto(&mut self, conn: usize, side: Side, gen: u64) {
        let action = {
            let ep = &mut self.conns[conn].ends[side.index()];
            if !ep.rto_armed || ep.rto_gen != gen {
                self.stats.tcp_timers_stale += 1;
                RtoAction::Nothing
            } else {
                ep.rto_armed = false;
                if ep.snd_una >= ep.snd_nxt {
                    RtoAction::Nothing
                } else if ep.retries >= MAX_RETRIES {
                    ep.failed = true;
                    ep.state = TcpState::Closed;
                    RtoAction::Nothing
                } else {
                    ep.retries += 1;
                    ep.rto = backoff(ep.rto);
                    match ep.state {
                        TcpState::SynSent => RtoAction::ResendSyn,
                        TcpState::SynRcvd => RtoAction::ResendSynAck,
                        TcpState::Established | TcpState::FinWait => {
                            // Go-back-N: rewind and resend from the first
                            // unacknowledged byte.
                            ep.snd_nxt = ep.snd_una;
                            RtoAction::GoBackN
                        }
                        TcpState::Idle | TcpState::Closed => RtoAction::Nothing,
                    }
                }
            }
        };
        match action {
            RtoAction::Nothing => {}
            RtoAction::ResendSyn => {
                self.tcp_emit_syn(conn);
                self.tcp_arm_rto(conn, side);
            }
            RtoAction::ResendSynAck => {
                self.tcp_emit_synack(conn);
                self.tcp_arm_rto(conn, side);
            }
            RtoAction::GoBackN => self.tcp_pump(conn, side),
        }
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
        assert_eq!(total.layers.l4_header, 160);
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
    fn segments_respect_the_link_mss() {
        let (mut sim, a, b) = two_hosts(4, LinkConfig::localhost());
        sim.tcp_listen(b, 853);
        let client = sim.tcp_connect(a, (b, 853));
        wait_for(&mut sim, |w| matches!(w, Wake::TcpConnected { .. }));
        // 4000 B at MSS 1460 (MTU 1500) → segments of 1460, 1460, 1080,
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
        assert_eq!(total.layers.dns, 4000);
        // Raw DNS over TCP: every non-payload byte is transport header.
        assert_eq!(total.bytes, total.layers.dns + total.layers.l4_header);
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
        assert!(total.layers.dns > 6000, "dns bytes {}", total.layers.dns);
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
        // (draining still pops the stale timer event, so `now` ends past it).
        assert_eq!(sim.meter.total().packets, 5);
        assert!(sim.now() - sent_at >= DELACK, "ACK arrived before the delack timeout");
        let client_ep = &sim.conns[client.conn].ends[Side::Client.index()];
        assert_eq!(client_ep.retries, 0, "the data segment was retransmitted");
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
    fn tagged_buf_tracks_ranges_through_push_advance_slice() {
        let mut buf = TaggedBuf::default();
        buf.push(LayerTag::Tls, 1, &[1; 10]);
        buf.push(LayerTag::Tls, 1, &[2; 5]); // coalesces with the previous
        buf.push(LayerTag::HttpBody, 2, &[3; 20]);
        assert_eq!(buf.len(), 35);
        assert_eq!(buf.ranges.len(), 2);

        // Across the attribution boundary on purpose (the pump never does).
        let seg = buf.slice(12, 10);
        assert_eq!(seg.bytes, [vec![2; 3], vec![3; 7]].concat());
        assert_eq!((seg.layers.tls, seg.layers.http_body, seg.layers.total()), (3, 7, 10));
        assert_eq!(seg.attr, 1, "the first byte's attribution");
        assert!(seg.mixed_attr);
        assert_eq!(buf.attr_run_len(12), 3);

        buf.advance(15);
        assert_eq!(buf.len(), 20);
        let seg = buf.slice(0, 20);
        assert_eq!(seg.bytes, vec![3; 20]);
        assert_eq!((seg.layers.http_body, seg.layers.total()), (20, 20));
        assert_eq!((seg.attr, seg.mixed_attr), (2, false));
    }

    /// Random `push` / `advance` / `slice` / `attr_run_len` sequences
    /// against a model that keeps `(byte, tag, attr)` per byte.
    #[test]
    fn tagged_buf_matches_a_naive_per_byte_model() {
        const TAGS: [LayerTag; 4] =
            [LayerTag::Tls, LayerTag::HttpHeader, LayerTag::HttpBody, LayerTag::DnsPayload];
        for seed in 1..=40u64 {
            let mut rng = crate::rng::SimRng::new(seed);
            let mut buf = TaggedBuf::default();
            let mut model: Vec<(u8, LayerTag, u32)> = Vec::new();
            // A slice taken earlier that a go-back-N rewind would cut again.
            let mut sent: Option<(usize, usize)> = None;
            let mut compactions = 0;
            let check_slice = |buf: &TaggedBuf,
                               model: &[(u8, LayerTag, u32)],
                               off: usize,
                               len: usize| {
                let seg = buf.slice(off, len);
                let want = &model[off..off + len];
                let bytes: Vec<u8> = want.iter().map(|b| b.0).collect();
                assert_eq!(seg.bytes, bytes, "seed {seed}: bytes of slice({off}, {len})");
                for tag in LayerTag::ALL {
                    let n = want.iter().filter(|b| b.1 == tag).count() as u64;
                    assert_eq!(seg.layers.get(tag), n, "seed {seed}: {tag:?} of ({off}, {len})");
                }
                if let Some(first) = want.first() {
                    assert_eq!(seg.attr, first.2, "seed {seed}: attr of ({off}, {len})");
                    let mixed = want.iter().any(|b| b.2 != first.2);
                    assert_eq!(seg.mixed_attr, mixed, "seed {seed}: mixed ({off}, {len})");
                }
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
                        sent = sent.and_then(|(off, len)| Some((off.checked_sub(n)?, len)));
                    }
                    6..=7 if !model.is_empty() => {
                        let off = rng.below(model.len() as u64) as usize;
                        let len = rng.below((model.len() - off) as u64 + 1) as usize;
                        check_slice(&buf, &model, off, len);
                        sent = Some((off, len));
                    }
                    8 if !model.is_empty() => {
                        let off = rng.below(model.len() as u64) as usize;
                        let run = model[off..].iter().take_while(|b| b.2 == model[off].2).count();
                        assert_eq!(buf.attr_run_len(off), run, "seed {seed}: run at {off}");
                        // What the pump cuts never mixes attributions.
                        assert!(!buf.slice(off, run.min(1460)).mixed_attr, "seed {seed}");
                    }
                    // The rewind: later pushes and ACKs of earlier bytes
                    // leave a retransmission identical to the original.
                    _ => {
                        if let Some((off, len)) = sent {
                            check_slice(&buf, &model, off, len);
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
        assert_eq!(t.layers.tls, 21);
        assert_eq!(t.layers.http_header, 60);
        assert_eq!(t.layers.http_body, 40);
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
        assert_eq!(sim.meter.cost(1).layers.dns, 300);
        assert_eq!(sim.meter.cost(2).layers.dns, 400);
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
        assert_eq!(sim.meter.cost(1).layers.dns, 300);
        assert_eq!(sim.meter.cost(2).layers.dns, 400);
    }
}
