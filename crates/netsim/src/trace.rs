//! Per-layer cost accounting: the measurement instrument behind the paper's
//! Figures 3–5.
//!
//! Every simulated packet is stamped with an *attribution id* (which DNS
//! resolution it belongs to) and carries a breakdown of its payload into
//! [`LayerTag`]s. The [`CostMeter`] aggregates bytes and packets per
//! attribution and per layer; experiment harnesses read distributions out of
//! it.

use crate::packet::Packet;

/// The layers the paper's Figure 5 breaks DoH resolution cost into, plus the
/// raw DNS payload tag used for the UDP scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LayerTag {
    /// IP + transport headers (the paper's "TCP" layer; for UDP scenarios
    /// this is the IP+UDP header cost).
    L4Header,
    /// TLS handshake messages and record framing (the paper's "TLS").
    Tls,
    /// HTTP header blocks — HTTP/2 HEADERS/CONTINUATION frames incl. frame
    /// headers, or HTTP/1.1 header text (the paper's "Hdr").
    HttpHeader,
    /// HTTP body — DNS payload carried in DATA frames incl. DATA frame
    /// headers, or HTTP/1.1 bodies (the paper's "Body").
    HttpBody,
    /// HTTP/2 connection management — SETTINGS, WINDOW_UPDATE, PING, GOAWAY,
    /// RST_STREAM (the paper's "Mgmt").
    HttpMgmt,
    /// Raw DNS message bytes on UDP or DoT (no HTTP layering).
    DnsPayload,
}

impl LayerTag {
    /// All tags, in the order Figure 5 presents them.
    pub const ALL: [LayerTag; 6] = [
        LayerTag::HttpBody,
        LayerTag::HttpHeader,
        LayerTag::HttpMgmt,
        LayerTag::Tls,
        LayerTag::L4Header,
        LayerTag::DnsPayload,
    ];

    /// The paper's column label for this layer.
    pub fn label(self) -> &'static str {
        match self {
            LayerTag::HttpBody => "Body",
            LayerTag::HttpHeader => "Hdr",
            LayerTag::HttpMgmt => "Mgmt",
            LayerTag::Tls => "TLS",
            LayerTag::L4Header => "TCP",
            LayerTag::DnsPayload => "DNS",
        }
    }
}

/// Byte totals split by layer: one bucket per [`LayerTag`], indexed by the
/// tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerBytes([u64; LayerTag::ALL.len()]);

impl LayerBytes {
    /// `n` bytes, all of them in the bucket for `tag`.
    pub(crate) fn of(tag: LayerTag, n: u64) -> LayerBytes {
        let mut layers = LayerBytes::default();
        layers.add(tag, n);
        layers
    }

    /// Adds `n` bytes to the bucket for `tag`.
    pub fn add(&mut self, tag: LayerTag, n: u64) {
        self.0[tag as usize] += n;
    }

    /// Bytes in the bucket for `tag`.
    pub fn get(&self, tag: LayerTag) -> u64 {
        self.0[tag as usize]
    }

    /// Sum over all layers.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Component-wise accumulation.
    pub fn merge(&mut self, other: &LayerBytes) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }
}

/// Cost of one attributed unit of work (one DNS resolution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Total bytes on the wire (headers + payload, both directions).
    pub bytes: u64,
    /// Packets on the wire (both directions).
    pub packets: u64,
    /// Byte breakdown by layer.
    pub layers: LayerBytes,
}

/// The event counters application layers keep on the [`CostMeter`]: what
/// the caching recursive resolver counts, one field per event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Stub queries answered from a positive cache entry.
    pub cache_hit: u64,
    /// Stub queries the cache could not answer.
    pub cache_miss: u64,
    /// Cache misses parked behind an identical fetch already in flight.
    pub coalesced_queries: u64,
    /// Queries sent to the upstream authoritative server.
    pub upstream_queries: u64,
}

/// The largest attribution id: ids are DNS transaction ids, 16 bits.
/// [`Sim::set_attr`](crate::sim::Sim::set_attr) rejects anything above it,
/// which caps the [`CostMeter`]'s table at 65 536 [`Cost`]s of 64 bytes.
pub(crate) const MAX_ATTR: u32 = u16::MAX as u32;

/// Aggregates packets into per-attribution [`Cost`]s, plus the event
/// [`Counters`] (cache hits/misses, upstream fetches, …) that application
/// layers increment so experiments read *all* their measurements from one
/// instrument.
#[derive(Debug, Default)]
pub struct CostMeter {
    /// Indexed by attribution id and grown to the highest id recorded, so
    /// the per-packet [`CostMeter::record`] is one bounds check and
    /// [`CostMeter::total`] sums in id order. An id in a gap holds the zero
    /// cost [`CostMeter::cost`] reports for an id never recorded.
    by_attr: Vec<Cost>,
    /// Application-layer event counts.
    pub counters: Counters,
}

impl CostMeter {
    /// Records one packet. Crate-private: a packet's `attr` has passed
    /// `Sim::set_attr`'s bound, which an outside caller's need not have.
    pub(crate) fn record(&mut self, pkt: &Packet) {
        let id = pkt.attr as usize;
        if id >= self.by_attr.len() {
            self.by_attr.resize(id + 1, Cost::default());
        }
        let cost = &mut self.by_attr[id];
        cost.packets += 1;
        cost.bytes += pkt.wire_len() as u64;
        cost.layers.add(LayerTag::L4Header, pkt.header_len() as u64);
        cost.layers.merge(&pkt.layers);
    }

    /// The cost attributed to `attr`, zero if nothing was recorded.
    pub fn cost(&self, attr: u32) -> Cost {
        self.by_attr.get(attr as usize).copied().unwrap_or_default()
    }

    /// Sum over every attribution.
    pub fn total(&self) -> Cost {
        let mut total = Cost::default();
        for c in &self.by_attr {
            total.bytes += c.bytes;
            total.packets += c.packets;
            total.layers.merge(&c.layers);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_packet(attr: u32, payload: usize) -> Packet {
        Packet {
            src: (crate::sim::HostId(0), 1000),
            dst: (crate::sim::HostId(1), 53),
            body: crate::packet::Body::Datagram(vec![0; payload]),
            layers: LayerBytes::of(LayerTag::DnsPayload, payload as u64),
            attr,
        }
    }

    #[test]
    fn meter_accumulates_bytes_and_packets() {
        let mut m = CostMeter::default();
        m.record(&dummy_packet(1, 33));
        m.record(&dummy_packet(1, 90));
        m.record(&dummy_packet(2, 10));
        let c1 = m.cost(1);
        assert_eq!(c1.packets, 2);
        // 28-byte IP+UDP header per packet.
        assert_eq!(c1.bytes, 33 + 28 + 90 + 28);
        assert_eq!(c1.layers.get(LayerTag::DnsPayload), 123);
        assert_eq!(c1.layers.get(LayerTag::L4Header), 56);
        assert_eq!(m.cost(2).packets, 1);
    }

    #[test]
    fn meter_total_merges_all_attrs() {
        let mut m = CostMeter::default();
        m.record(&dummy_packet(1, 10));
        m.record(&dummy_packet(2, 20));
        m.record(&dummy_packet(700, 5));
        m.record(&dummy_packet(2, 7));
        let t = m.total();
        assert_eq!(t.packets, 4);
        assert_eq!(t.layers.get(LayerTag::DnsPayload), 42);
        // The total is the sum over the ids used, no more.
        let mut sum = Cost::default();
        for id in [1, 2, 700] {
            let c = m.cost(id);
            sum.bytes += c.bytes;
            sum.packets += c.packets;
            sum.layers.merge(&c.layers);
        }
        assert_eq!(t, sum);
    }

    #[test]
    fn unknown_attr_is_zero_cost() {
        let mut m = CostMeter::default();
        assert_eq!(m.cost(7), Cost::default());
        // Neither an id in a gap of the table nor one past its end.
        m.record(&dummy_packet(9, 10));
        assert_eq!(m.cost(7), Cost::default());
        assert_eq!(m.cost(10), Cost::default());
        assert_eq!(m.cost(u32::MAX), Cost::default());
    }

    #[test]
    fn layer_bytes_total_and_merge() {
        let mut a = LayerBytes::default();
        a.add(LayerTag::Tls, 5);
        a.add(LayerTag::HttpBody, 7);
        let mut b = LayerBytes::default();
        b.add(LayerTag::Tls, 3);
        b.merge(&a);
        assert_eq!(b.get(LayerTag::Tls), 8);
        assert_eq!(b.total(), 15);

        // Each tag has a bucket of its own: `of(tag, n)` holds `n` under
        // `tag` and nothing under any other, and `total` and `merge` work
        // bucket by bucket.
        let mut all = LayerBytes::default();
        for (i, tag) in LayerTag::ALL.into_iter().enumerate() {
            let n = 10 + i as u64;
            let one = LayerBytes::of(tag, n);
            for t in LayerTag::ALL {
                assert_eq!(one.get(t), if t == tag { n } else { 0 }, "{tag:?} read as {t:?}");
            }
            assert_eq!(one.total(), n);
            all.merge(&one);
            all.merge(&one);
        }
        for (i, tag) in LayerTag::ALL.into_iter().enumerate() {
            assert_eq!(all.get(tag), 2 * (10 + i as u64), "{tag:?}");
        }
        assert_eq!(all.total(), 2 * (10..16).sum::<u64>());
    }

    #[test]
    fn labels_match_figure5_columns() {
        let labels: Vec<&str> = LayerTag::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels, vec!["Body", "Hdr", "Mgmt", "TLS", "TCP", "DNS"]);
    }
}
