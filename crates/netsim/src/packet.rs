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
    /// Payload bytes, `seq..seq + len` of the sender's stream.
    pub(crate) len: u32,
    /// Flags.
    pub(crate) flags: TcpFlags,
    /// Option bytes on this segment (non-zero only for SYN/SYN-ACK here).
    pub(crate) options_len: usize,
}

/// What a packet carries past its headers.
#[derive(Debug, Clone)]
pub(crate) enum Body {
    /// A UDP datagram's payload, moved from the sender to the receiving
    /// socket's queue.
    Datagram(Vec<u8>),
    /// A TCP segment's sequence-space metadata, and no bytes: its payload
    /// stays in the sender's send buffer, where the receiver reads it.
    Segment(TcpSegMeta),
}

/// A packet in flight.
///
/// **No copy in flight.** A UDP payload is the caller's own `Vec`, moved
/// through the in-flight slab into the receiving socket's queue. A TCP
/// payload byte is copied once on the way in, by the sender's write into its
/// send buffer, and a segment names it only by `seq` and `len`. The
/// receiver's `Sim::tcp_read` borrows the bytes in place from that buffer,
/// which keeps each byte until the peer has both acknowledged and read it;
/// so a retransmission, lost or not, copies nothing either. A packet costs no
/// heap allocation beyond a datagram's payload: its layer composition is the
/// fixed-size [`LayerBytes`], not a list of ranges, because its only readers
/// (`CostMeter::record` and the coverage check in `Sim::send_packet`) want
/// per-tag sums.
#[derive(Debug, Clone)]
pub(crate) struct Packet {
    /// Source host and port.
    pub(crate) src: (HostId, u16),
    /// Destination host and port.
    pub(crate) dst: (HostId, u16),
    /// A datagram's payload or a segment's metadata.
    pub(crate) body: Body,
    /// Payload bytes per layer; they sum to [`Packet::payload_len`] (the
    /// headers are charged separately, from [`Packet::header_len`]).
    pub(crate) layers: LayerBytes,
    /// Attribution id for headers and accounting.
    pub(crate) attr: u32,
}

// Each packet in flight fills one `PacketSlab` slot. A segment's metadata
// shares its bytes with a datagram's `Vec`, so neither pays for the other.
const _: () = assert!(std::mem::size_of::<Packet>() <= 128);

impl Packet {
    /// IP + transport header size for this packet.
    pub(crate) fn header_len(&self) -> usize {
        match &self.body {
            Body::Datagram(_) => IP_HEADER + UDP_HEADER,
            Body::Segment(seg) => IP_HEADER + TCP_HEADER + seg.options_len,
        }
    }

    /// Transport payload size: a datagram's bytes, or the stream bytes a
    /// segment stands for.
    pub(crate) fn payload_len(&self) -> usize {
        match &self.body {
            Body::Datagram(payload) => payload.len(),
            Body::Segment(seg) => seg.len as usize,
        }
    }

    /// Total size on the wire.
    pub(crate) fn wire_len(&self) -> usize {
        self.header_len() + self.payload_len()
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
            body: Body::Datagram(vec![0; 33]),
            layers: LayerBytes::of(LayerTag::DnsPayload, 33),
            attr: 0,
        };
        assert_eq!(p.header_len(), 28);
        assert_eq!(p.wire_len(), 61);
        assert_eq!(p.layers.total() as usize, p.payload_len());
    }

    #[test]
    fn tcp_syn_carries_options() {
        let p = Packet {
            src: (HostId(0), 40000),
            dst: (HostId(1), 443),
            body: Body::Segment(TcpSegMeta {
                conn: 0,
                seq: 0,
                ack: 0,
                len: 0,
                flags: TcpFlags { syn: true, ..Default::default() },
                options_len: TCP_SYN_OPTIONS,
            }),
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
            body: Body::Segment(TcpSegMeta {
                conn: 0,
                seq: 1,
                ack: 1,
                len: 100,
                flags: TcpFlags { ack: true, ..Default::default() },
                options_len: 0,
            }),
            layers: LayerBytes::of(LayerTag::HttpBody, 100),
            attr: 0,
        };
        assert_eq!(p.header_len(), 40);
        assert_eq!(p.wire_len(), 140);
        assert_eq!(p.layers.total() as usize, p.payload_len());
    }
}
