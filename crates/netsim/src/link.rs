//! Point-to-point links: propagation delay, serialisation, jitter and
//! loss.

use crate::time::{SimDuration, SimTime};

/// Configuration of one direction of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Uniform random extra delay in `[0, jitter]` added per packet.
    ///
    /// It is drawn for each packet independently and added after the FIFO
    /// transmitter (`DirLink::schedule`), so a packet's jitter does not
    /// hold back the ones behind it. Jitter larger than the gap between two
    /// packets therefore reorders them, as Linux netem's per-packet delay
    /// jitter does. This is intended and stays: links reorder, and what a
    /// reordered TCP segment costs is the receiver's business (see the
    /// [`tcp`](crate::tcp) module docs).
    pub jitter: SimDuration,
    /// Bits per second; `None` models an un-serialised (infinite) link.
    pub bandwidth_bps: Option<u64>,
    /// Probability that a packet is silently dropped.
    pub loss: f64,
}

impl LinkConfig {
    /// A loopback-like link: 50 µs one-way, no serialisation, lossless.
    /// Matches the paper's §3 controlled localhost experiment.
    pub fn localhost() -> LinkConfig {
        LinkConfig {
            latency: SimDuration::from_micros(50),
            jitter: SimDuration::ZERO,
            bandwidth_bps: None,
            loss: 0.0,
        }
    }

    /// A LAN/university-uplink-like path with the given round-trip time.
    ///
    /// The one-way latency is `ceil(rtt / 2)`: flooring would make the two
    /// directions of a symmetric link sum to `rtt - 1` ns for odd RTTs.
    pub fn with_rtt(rtt: SimDuration) -> LinkConfig {
        let half_up = SimDuration::from_nanos(rtt.as_nanos().div_ceil(2));
        LinkConfig { latency: half_up, ..LinkConfig::localhost() }
    }

    /// The clean access-network profile the transport-matrix experiments
    /// default to: 14 ms RTT, 50 Mbit s⁻¹, no jitter, no loss — a wired
    /// broadband last mile to a nearby resolver (the paper's §3 "good
    /// network" case).
    pub fn clean_broadband() -> LinkConfig {
        LinkConfig::with_rtt(SimDuration::from_millis(14)).bandwidth_mbps(50)
    }

    /// A congested home-WiFi profile: 20 ms RTT, 20 Mbit s⁻¹, up to 3 ms
    /// of per-packet jitter and 1% iid loss — enough loss that TCP
    /// retransmission timers (and head-of-line blocking on multiplexed
    /// transports) show up in page-load tails.
    pub fn lossy_wifi() -> LinkConfig {
        LinkConfig::with_rtt(SimDuration::from_millis(20))
            .bandwidth_mbps(20)
            .jitter(SimDuration::from_millis(3))
            .loss(0.01)
    }

    /// A cellular 3G profile: 100 ms RTT, 4 Mbit s⁻¹, up to 15 ms of
    /// per-packet jitter and 2% iid loss — the paper's worst measured
    /// vantage class, where every handshake round trip is expensive and
    /// loss recovery dominates tails.
    pub fn mobile_3g() -> LinkConfig {
        LinkConfig::with_rtt(SimDuration::from_millis(100))
            .bandwidth_mbps(4)
            .jitter(SimDuration::from_millis(15))
            .loss(0.02)
    }

    /// Sets the bandwidth in megabits per second.
    pub fn bandwidth_mbps(mut self, mbps: u64) -> LinkConfig {
        self.bandwidth_bps = Some(mbps * 1_000_000);
        self
    }

    /// Sets an iid loss probability.
    pub fn loss(mut self, p: f64) -> LinkConfig {
        self.loss = p;
        self
    }

    /// Sets uniform jitter.
    pub fn jitter(mut self, j: SimDuration) -> LinkConfig {
        self.jitter = j;
        self
    }

    /// Serialisation delay of `bytes` at the configured bandwidth.
    ///
    /// Computed in exact integer nanoseconds (`bytes * 8 * 1e9 / bps`,
    /// truncating) so delays are platform-independent and never accumulate
    /// float rounding error; a zero bandwidth is clamped to 1 bps.
    pub fn serialise(&self, bytes: usize) -> SimDuration {
        match self.bandwidth_bps {
            None => SimDuration::ZERO,
            Some(bps) => {
                let ns = bytes as u128 * 8 * 1_000_000_000 / u128::from(bps.max(1));
                SimDuration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
            }
        }
    }
}

/// Runtime state of one link direction.
#[derive(Debug)]
pub(crate) struct DirLink {
    /// Static configuration.
    pub(crate) cfg: LinkConfig,
    /// When the transmitter becomes free (FIFO serialisation).
    busy_until: SimTime,
    /// Wire bytes put on this direction, headers and lost packets
    /// included: [`Sim::link_bytes`](crate::Sim::link_bytes).
    pub(crate) bytes: u64,
}

impl DirLink {
    /// Creates an idle link direction that has carried nothing.
    pub(crate) fn new(cfg: LinkConfig) -> DirLink {
        DirLink { cfg, busy_until: SimTime::ZERO, bytes: 0 }
    }

    /// Computes the arrival time of a packet of `bytes` handed to the
    /// transmitter at `now`, updating the transmitter-busy horizon.
    pub(crate) fn schedule(&mut self, now: SimTime, bytes: usize, jitter: SimDuration) -> SimTime {
        let start = if self.busy_until > now { self.busy_until } else { now };
        let done = start + self.cfg.serialise(bytes);
        self.busy_until = done;
        done + self.cfg.latency + jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_bandwidth_has_zero_serialisation() {
        let cfg = LinkConfig::localhost();
        assert_eq!(cfg.serialise(1_000_000), SimDuration::ZERO);
    }

    #[test]
    fn serialisation_delay_matches_rate() {
        let cfg = LinkConfig::localhost().bandwidth_mbps(8); // 1 byte per microsecond
        assert_eq!(cfg.serialise(1000), SimDuration::from_millis(1));
    }

    #[test]
    fn fifo_serialisation_queues_packets() {
        let cfg = LinkConfig::with_rtt(SimDuration::from_millis(10)).bandwidth_mbps(8);
        let mut dir = DirLink::new(cfg);
        let t0 = SimTime::ZERO;
        let a1 = dir.schedule(t0, 1000, SimDuration::ZERO);
        let a2 = dir.schedule(t0, 1000, SimDuration::ZERO);
        // First packet: 1 ms serialise + 5 ms latency; second waits behind it.
        assert_eq!(a1, SimTime::ZERO + SimDuration::from_millis(6));
        assert_eq!(a2, SimTime::ZERO + SimDuration::from_millis(7));
    }

    #[test]
    fn idle_link_does_not_queue() {
        let cfg = LinkConfig::localhost().bandwidth_mbps(8);
        let mut dir = DirLink::new(cfg);
        dir.schedule(SimTime::ZERO, 1000, SimDuration::ZERO);
        // A packet handed over much later sees an idle transmitter.
        let late = SimTime::ZERO + SimDuration::from_secs(1);
        let arrival = dir.schedule(late, 1000, SimDuration::ZERO);
        assert_eq!(arrival, late + SimDuration::from_millis(1) + cfg.latency);
    }

    #[test]
    fn rtt_helper_splits_latency() {
        let cfg = LinkConfig::with_rtt(SimDuration::from_millis(20));
        assert_eq!(cfg.latency, SimDuration::from_millis(10));
    }

    #[test]
    fn odd_rtt_rounds_up_not_down() {
        // 7.000000001 ms: flooring rtt/2 would silently shave 1 ns off the
        // round trip; with_rtt rounds the half up instead.
        let rtt = SimDuration::from_nanos(7_000_001);
        let cfg = LinkConfig::with_rtt(rtt);
        assert_eq!(cfg.latency, SimDuration::from_nanos(3_500_001));
    }

    #[test]
    fn serialisation_is_exact_integer_nanoseconds() {
        // 1500 B at 7 Mbps: 12 000 bits / 7e6 bps = 1 714 285.714… µs-scale
        // value that f64 arithmetic used to round; the integer path
        // truncates to exactly 1 714 285 ns on every platform.
        let cfg = LinkConfig::localhost().bandwidth_mbps(7);
        assert_eq!(cfg.serialise(1500), SimDuration::from_nanos(1_714_285));
        // Exact divisions stay exact.
        let cfg8 = LinkConfig::localhost().bandwidth_mbps(8);
        assert_eq!(cfg8.serialise(1500), SimDuration::from_micros(1500));
        // Huge transfers cannot overflow or lose precision.
        let slow = LinkConfig { bandwidth_bps: Some(1), ..LinkConfig::localhost() };
        assert_eq!(slow.serialise(2), SimDuration::from_secs(16));
        // Zero bandwidth clamps to 1 bps instead of dividing by zero.
        let zero = LinkConfig { bandwidth_bps: Some(0), ..LinkConfig::localhost() };
        assert_eq!(zero.serialise(1), SimDuration::from_secs(8));
    }

    #[test]
    fn named_presets_pin_their_documented_values() {
        let clean = LinkConfig::clean_broadband();
        assert_eq!(clean.latency, SimDuration::from_millis(7));
        assert_eq!(clean.bandwidth_bps, Some(50_000_000));
        assert_eq!(clean.loss, 0.0);
        assert_eq!(clean.jitter, SimDuration::ZERO);

        let wifi = LinkConfig::lossy_wifi();
        assert_eq!(wifi.latency, SimDuration::from_millis(10));
        assert_eq!(wifi.bandwidth_bps, Some(20_000_000));
        assert_eq!(wifi.loss, 0.01);
        assert_eq!(wifi.jitter, SimDuration::from_millis(3));

        let mobile = LinkConfig::mobile_3g();
        assert_eq!(mobile.latency, SimDuration::from_millis(50));
        assert_eq!(mobile.bandwidth_bps, Some(4_000_000));
        assert_eq!(mobile.loss, 0.02);
        assert_eq!(mobile.jitter, SimDuration::from_millis(15));

        // Presets order themselves from best to worst effective path.
        assert!(clean.latency < wifi.latency && wifi.latency < mobile.latency);
        assert!(clean.loss < wifi.loss && wifi.loss < mobile.loss);
    }

    #[test]
    fn jitter_adds_to_arrival() {
        let cfg = LinkConfig::localhost();
        let mut dir = DirLink::new(cfg);
        let a = dir.schedule(SimTime::ZERO, 100, SimDuration::from_micros(30));
        assert_eq!(a, SimTime::ZERO + cfg.latency + SimDuration::from_micros(30));
    }
}
