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
pub const TCP_SYN_OPTIONS: usize = 20;

/// Transport protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// User Datagram Protocol.
    Udp,
    /// Transmission Control Protocol.
    Tcp,
}

/// TCP flag set carried in segment metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Synchronise sequence numbers.
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
}

impl TcpFlags {
    /// Renders flags tcpdump-style, e.g. `"S."` or `"F."`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        if self.syn {
            s.push('S');
        }
        if self.fin {
            s.push('F');
        }
        if self.rst {
            s.push('R');
        }
        if self.ack {
            s.push('.');
        }
        s
    }
}

/// TCP segment metadata (sequence space bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegMeta {
    /// Connection this segment belongs to (simulator-internal id).
    pub conn: usize,
    /// Sender's sequence number of the first payload byte.
    pub seq: u64,
    /// Cumulative acknowledgement number.
    pub ack: u64,
    /// Flags.
    pub flags: TcpFlags,
    /// Option bytes on this segment (non-zero only for SYN/SYN-ACK here).
    pub options_len: usize,
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
pub struct Packet {
    /// Source host and port.
    pub src: (HostId, u16),
    /// Destination host and port.
    pub dst: (HostId, u16),
    /// Transport protocol.
    pub proto: Proto,
    /// TCP metadata (None for UDP).
    pub seg: Option<TcpSegMeta>,
    /// Transport payload.
    pub payload: Vec<u8>,
    /// Payload bytes per layer; they sum to `payload.len()` (the headers
    /// are charged separately, from [`Packet::header_len`]).
    pub layers: LayerBytes,
    /// Attribution id for headers and accounting.
    pub attr: u32,
}

impl Packet {
    /// IP + transport header size for this packet.
    pub fn header_len(&self) -> usize {
        match self.proto {
            Proto::Udp => IP_HEADER + UDP_HEADER,
            Proto::Tcp => IP_HEADER + TCP_HEADER + self.seg.map(|s| s.options_len).unwrap_or(0),
        }
    }

    /// Total size on the wire.
    pub fn wire_len(&self) -> usize {
        self.header_len() + self.payload.len()
    }

    /// One-line summary for trace dumps.
    pub fn summary(&self) -> String {
        match (self.proto, &self.seg) {
            (Proto::Udp, _) => format!("UDP len={}", self.payload.len()),
            (Proto::Tcp, Some(seg)) => format!(
                "TCP {} seq={} ack={} len={}",
                seg.flags.render(),
                seg.seq,
                seg.ack,
                self.payload.len()
            ),
            (Proto::Tcp, None) => "TCP ?".to_string(),
        }
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
            proto: Proto::Udp,
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
            proto: Proto::Tcp,
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
        assert!(p.summary().contains('S'));
    }

    #[test]
    fn plain_tcp_segment_is_40_bytes_of_headers() {
        let p = Packet {
            src: (HostId(0), 40000),
            dst: (HostId(1), 443),
            proto: Proto::Tcp,
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
        assert!(p.summary().contains("len=100"));
    }

    #[test]
    fn flag_rendering() {
        assert_eq!(TcpFlags { syn: true, ack: true, ..Default::default() }.render(), "S.");
        assert_eq!(TcpFlags { fin: true, ack: true, ..Default::default() }.render(), "F.");
        assert_eq!(TcpFlags { rst: true, ..Default::default() }.render(), "R");
    }
}
