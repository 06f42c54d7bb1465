//! Simulated packets and on-wire header size constants.

use crate::sim::HostId;
use crate::trace::LayerBytes;

/// IPv4 header size without options.
pub const IP_HEADER: usize = 20;
/// UDP header size.
pub const UDP_HEADER: usize = 8;
/// TCP header size without options.
pub const TCP_HEADER: usize = 20;
/// TCP option bytes carried on SYN/SYN-ACK (MSS, SACK-permitted, window
/// scale, padding — the common Linux layout).
pub(crate) const TCP_SYN_OPTIONS: usize = 20;

/// TCP flag set carried in segment metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct TcpFlags {
    /// Synchronise sequence numbers.
    pub(crate) syn: bool,
    /// Acknowledgement field is valid.
    pub(crate) ack: bool,
    /// No more data from sender.
    pub(crate) fin: bool,
}

/// TCP segment metadata (sequence space bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TcpSegMeta {
    /// Connection this segment belongs to (simulator-internal id).
    pub(crate) conn: usize,
    /// Sender's sequence number of the first payload byte.
    pub(crate) seq: u64,
    /// Cumulative acknowledgement number.
    pub(crate) ack: u64,
    /// Flags.
    pub(crate) flags: TcpFlags,
    /// Option bytes on this segment (non-zero only for SYN/SYN-ACK here).
    pub(crate) options_len: usize,
}

/// A packet in flight.
///
/// **One copy per hop.** A payload byte is copied once on the way in (the
/// sender's write into its send buffer, or the caller's own `Vec` for UDP),
/// once per transmission (the `memcpy` that cuts a segment out of the send
/// buffer) and is then *moved*, never copied, through the in-flight slab
/// into the receiver's buffer. A packet costs no heap allocation beyond
/// `payload`: its layer composition is the fixed-size [`LayerBytes`], not a
/// list of ranges, because its only readers (`CostMeter::record` and the
/// coverage check in `Sim::send_packet`) want per-tag sums.
#[derive(Debug, Clone)]
pub(crate) struct Packet {
    /// Source host and port.
    pub(crate) src: (HostId, u16),
    /// Destination host and port.
    pub(crate) dst: (HostId, u16),
    /// TCP segment metadata: a packet is a TCP segment exactly when it
    /// carries some, and a UDP datagram otherwise.
    pub(crate) seg: Option<TcpSegMeta>,
    /// Transport payload.
    pub(crate) payload: Vec<u8>,
    /// Payload bytes per layer; they sum to `payload.len()` (the headers
    /// are charged separately, from [`Packet::header_len`]).
    pub(crate) layers: LayerBytes,
    /// Attribution id for headers and accounting.
    pub(crate) attr: u32,
}

impl Packet {
    /// IP + transport header size for this packet.
    pub(crate) fn header_len(&self) -> usize {
        match self.seg {
            None => IP_HEADER + UDP_HEADER,
            Some(seg) => IP_HEADER + TCP_HEADER + seg.options_len,
        }
    }

    /// Total size on the wire.
    pub(crate) fn wire_len(&self) -> usize {
        self.header_len() + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::LayerTag;

    #[test]
    fn udp_header_is_28_bytes() {
        let p = Packet {
            src: (HostId(0), 1234),
            dst: (HostId(1), 53),
            seg: None,
            payload: vec![0; 33],
            layers: LayerBytes::of(LayerTag::DnsPayload, 33),
            attr: 0,
        };
        assert_eq!(p.header_len(), 28);
        assert_eq!(p.wire_len(), 61);
        assert_eq!(p.layers.total() as usize, p.payload.len());
    }

    #[test]
    fn tcp_syn_carries_options() {
        let p = Packet {
            src: (HostId(0), 40000),
            dst: (HostId(1), 443),
            seg: Some(TcpSegMeta {
                conn: 0,
                seq: 0,
                ack: 0,
                flags: TcpFlags { syn: true, ..Default::default() },
                options_len: TCP_SYN_OPTIONS,
            }),
            payload: vec![],
            layers: LayerBytes::default(),
            attr: 0,
        };
        assert_eq!(p.header_len(), 60);
    }

    #[test]
    fn plain_tcp_segment_is_40_bytes_of_headers() {
        let p = Packet {
            src: (HostId(0), 40000),
            dst: (HostId(1), 443),
            seg: Some(TcpSegMeta {
                conn: 0,
                seq: 1,
                ack: 1,
                flags: TcpFlags { ack: true, ..Default::default() },
                options_len: 0,
            }),
            payload: vec![9; 100],
            layers: LayerBytes::of(LayerTag::HttpBody, 100),
            attr: 0,
        };
        assert_eq!(p.header_len(), 40);
        assert_eq!(p.wire_len(), 140);
        assert_eq!(p.layers.total() as usize, p.payload.len());
    }
}
