//! HTTP/2 framing (RFC 9113): the connection preface and the frame types
//! a DoH exchange touches.
//!
//! Every frame is `encode`d to exactly the bytes a real implementation
//! emits — the 9-octet frame header (24-bit length, type, flags, 31-bit
//! stream id) followed by the typed payload — and [`FrameDecoder`] parses
//! them back out of an arbitrary stream segmentation. Supported types:
//! DATA, HEADERS, SETTINGS, WINDOW_UPDATE, PING, GOAWAY and RST_STREAM
//! (PRIORITY/PUSH_PROMISE/CONTINUATION never occur in the simulated DoH
//! traffic; unknown frame types decode as [`Frame::Unknown`] and are
//! ignored by endpoints, as §4.1 requires).
//!
//! Header blocks inside HEADERS frames are opaque bytes here — produce and
//! consume them with [`crate::hpack`]. The split matters for cost
//! accounting: HEADERS frames (header bytes plus their frame header) are
//! charged to the paper's "Hdr" layer, DATA frames to "Body", and
//! everything else to "Mgmt".

use std::fmt;

/// The 24 octets every client connection starts with (§3.4).
pub const PREFACE: &[u8; 24] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

/// Size of the fixed frame header (§4.1).
pub const FRAME_HEADER: usize = 9;

/// Identifiers of the SETTINGS parameters (§6.5.2).
pub mod settings {
    /// Maximum size of the peer's HPACK dynamic table.
    pub const HEADER_TABLE_SIZE: u16 = 0x1;
    /// Whether server push is permitted (0 or 1).
    pub const ENABLE_PUSH: u16 = 0x2;
    /// Maximum concurrent streams the sender allows.
    pub const MAX_CONCURRENT_STREAMS: u16 = 0x3;
    /// Initial per-stream flow-control window.
    pub const INITIAL_WINDOW_SIZE: u16 = 0x4;
    /// Largest frame payload the sender accepts.
    pub const MAX_FRAME_SIZE: u16 = 0x5;
    /// Advisory maximum header-list size.
    pub const MAX_HEADER_LIST_SIZE: u16 = 0x6;
}

/// Frame-type codes (§6).
mod frame_type {
    pub const DATA: u8 = 0x0;
    pub const HEADERS: u8 = 0x1;
    pub const RST_STREAM: u8 = 0x3;
    pub const SETTINGS: u8 = 0x4;
    pub const PING: u8 = 0x6;
    pub const GOAWAY: u8 = 0x7;
    pub const WINDOW_UPDATE: u8 = 0x8;
}

const FLAG_END_STREAM: u8 = 0x1;
const FLAG_ACK: u8 = 0x1;
const FLAG_END_HEADERS: u8 = 0x4;

/// A decode failure; real stacks answer with a connection error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H2Error {
    /// A frame payload did not match its type's fixed layout.
    BadFrame(&'static str),
    /// A frame declared a payload longer than the implementation limit.
    FrameTooLarge(usize),
}

impl fmt::Display for H2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H2Error::BadFrame(what) => write!(f, "malformed {what} frame"),
            H2Error::FrameTooLarge(n) => write!(f, "frame payload of {n} bytes too large"),
        }
    }
}

impl std::error::Error for H2Error {}

/// One HTTP/2 frame, typed by payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// DATA (§6.1): stream payload bytes.
    Data {
        /// Stream the data belongs to.
        stream_id: u32,
        /// Payload bytes.
        data: Vec<u8>,
        /// END_STREAM flag.
        end_stream: bool,
    },
    /// HEADERS (§6.2) carrying a complete HPACK header block.
    Headers {
        /// Stream the header block opens.
        stream_id: u32,
        /// HPACK-encoded header block fragment.
        block: Vec<u8>,
        /// END_STREAM flag.
        end_stream: bool,
    },
    /// SETTINGS (§6.5): parameter list, or an empty acknowledgement.
    Settings {
        /// `(identifier, value)` pairs; empty for an ACK.
        params: Vec<(u16, u32)>,
        /// ACK flag.
        ack: bool,
    },
    /// WINDOW_UPDATE (§6.9).
    WindowUpdate {
        /// 0 for the connection window, else the stream.
        stream_id: u32,
        /// Window increment in octets.
        increment: u32,
    },
    /// PING (§6.7): 8 opaque octets.
    Ping {
        /// Opaque payload, echoed in the ACK.
        data: [u8; 8],
        /// ACK flag.
        ack: bool,
    },
    /// GOAWAY (§6.8).
    Goaway {
        /// Highest stream id the sender may still process.
        last_stream_id: u32,
        /// Error code (0 = NO_ERROR, the graceful case).
        error_code: u32,
        /// Optional opaque debug data.
        debug: Vec<u8>,
    },
    /// RST_STREAM (§6.4).
    RstStream {
        /// The stream being reset.
        stream_id: u32,
        /// Error code.
        error_code: u32,
    },
    /// Any frame type this model does not interpret (§4.1: must be
    /// ignored, but its bytes were still on the wire).
    Unknown {
        /// Frame type code.
        frame_type: u8,
        /// Stream id from the frame header.
        stream_id: u32,
        /// Raw payload.
        payload: Vec<u8>,
    },
}

fn put_frame_header(out: &mut Vec<u8>, len: usize, ftype: u8, flags: u8, stream_id: u32) {
    debug_assert!(len < 1 << 24);
    out.extend_from_slice(&(len as u32).to_be_bytes()[1..]);
    out.push(ftype);
    out.push(flags);
    out.extend_from_slice(&(stream_id & 0x7FFF_FFFF).to_be_bytes());
}

impl Frame {
    /// Serialises the frame: 9-octet header plus payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER + 16);
        match self {
            Frame::Data { stream_id, data, end_stream } => {
                let flags = if *end_stream { FLAG_END_STREAM } else { 0 };
                put_frame_header(&mut out, data.len(), frame_type::DATA, flags, *stream_id);
                out.extend_from_slice(data);
            }
            Frame::Headers { stream_id, block, end_stream } => {
                // Header blocks here always fit one frame, so END_HEADERS
                // is always set and CONTINUATION never occurs.
                let mut flags = FLAG_END_HEADERS;
                if *end_stream {
                    flags |= FLAG_END_STREAM;
                }
                put_frame_header(&mut out, block.len(), frame_type::HEADERS, flags, *stream_id);
                out.extend_from_slice(block);
            }
            Frame::Settings { params, ack } => {
                let flags = if *ack { FLAG_ACK } else { 0 };
                put_frame_header(&mut out, params.len() * 6, frame_type::SETTINGS, flags, 0);
                for &(id, value) in params {
                    out.extend_from_slice(&id.to_be_bytes());
                    out.extend_from_slice(&value.to_be_bytes());
                }
            }
            Frame::WindowUpdate { stream_id, increment } => {
                put_frame_header(&mut out, 4, frame_type::WINDOW_UPDATE, 0, *stream_id);
                out.extend_from_slice(&(increment & 0x7FFF_FFFF).to_be_bytes());
            }
            Frame::Ping { data, ack } => {
                let flags = if *ack { FLAG_ACK } else { 0 };
                put_frame_header(&mut out, 8, frame_type::PING, flags, 0);
                out.extend_from_slice(data);
            }
            Frame::Goaway { last_stream_id, error_code, debug } => {
                put_frame_header(&mut out, 8 + debug.len(), frame_type::GOAWAY, 0, 0);
                out.extend_from_slice(&(last_stream_id & 0x7FFF_FFFF).to_be_bytes());
                out.extend_from_slice(&error_code.to_be_bytes());
                out.extend_from_slice(debug);
            }
            Frame::RstStream { stream_id, error_code } => {
                put_frame_header(&mut out, 4, frame_type::RST_STREAM, 0, *stream_id);
                out.extend_from_slice(&error_code.to_be_bytes());
            }
            Frame::Unknown { frame_type, stream_id, payload } => {
                put_frame_header(&mut out, payload.len(), *frame_type, 0, *stream_id);
                out.extend_from_slice(payload);
            }
        }
        out
    }

    fn decode(ftype: u8, flags: u8, stream_id: u32, payload: &[u8]) -> Result<Frame, H2Error> {
        let be32 = |b: &[u8]| u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        match ftype {
            frame_type::DATA => Ok(Frame::Data {
                stream_id,
                data: payload.to_vec(),
                end_stream: flags & FLAG_END_STREAM != 0,
            }),
            frame_type::HEADERS => Ok(Frame::Headers {
                stream_id,
                block: payload.to_vec(),
                end_stream: flags & FLAG_END_STREAM != 0,
            }),
            frame_type::SETTINGS => {
                if payload.len() % 6 != 0 {
                    return Err(H2Error::BadFrame("SETTINGS"));
                }
                let params = payload
                    .chunks_exact(6)
                    .map(|c| (u16::from_be_bytes([c[0], c[1]]), be32(&c[2..])))
                    .collect();
                Ok(Frame::Settings { params, ack: flags & FLAG_ACK != 0 })
            }
            frame_type::WINDOW_UPDATE => {
                if payload.len() != 4 {
                    return Err(H2Error::BadFrame("WINDOW_UPDATE"));
                }
                Ok(Frame::WindowUpdate { stream_id, increment: be32(payload) & 0x7FFF_FFFF })
            }
            frame_type::PING => {
                let data: [u8; 8] = payload.try_into().map_err(|_| H2Error::BadFrame("PING"))?;
                Ok(Frame::Ping { data, ack: flags & FLAG_ACK != 0 })
            }
            frame_type::GOAWAY => {
                if payload.len() < 8 {
                    return Err(H2Error::BadFrame("GOAWAY"));
                }
                Ok(Frame::Goaway {
                    last_stream_id: be32(payload) & 0x7FFF_FFFF,
                    error_code: be32(&payload[4..]),
                    debug: payload[8..].to_vec(),
                })
            }
            frame_type::RST_STREAM => {
                if payload.len() != 4 {
                    return Err(H2Error::BadFrame("RST_STREAM"));
                }
                Ok(Frame::RstStream { stream_id, error_code: be32(payload) })
            }
            other => Ok(Frame::Unknown { frame_type: other, stream_id, payload: payload.to_vec() }),
        }
    }
}

/// Sanity bound on declared payload lengths: 1 MiB, far above the 16 kB
/// SETTINGS_MAX_FRAME_SIZE the simulated endpoints advertise but low
/// enough that a corrupt length field (up to 2^24 − 1) is rejected
/// instead of stalling the decoder waiting for megabytes that never come.
const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Incremental frame parser for one direction of a connection.
///
/// Feed raw stream bytes with [`FrameDecoder::push`] (after stripping the
/// client [`PREFACE`], which is not a frame), then drain complete frames
/// with [`FrameDecoder::next_frame`].
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends received stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame, if fully received.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, H2Error> {
        if self.buf.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = usize::from(self.buf[0]) << 16
            | usize::from(self.buf[1]) << 8
            | usize::from(self.buf[2]);
        if len >= MAX_FRAME_PAYLOAD {
            return Err(H2Error::FrameTooLarge(len));
        }
        if self.buf.len() < FRAME_HEADER + len {
            return Ok(None);
        }
        let ftype = self.buf[3];
        let flags = self.buf[4];
        let stream_id =
            u32::from_be_bytes([self.buf[5], self.buf[6], self.buf[7], self.buf[8]]) & 0x7FFF_FFFF;
        let payload: Vec<u8> = self.buf.drain(..FRAME_HEADER + len).skip(FRAME_HEADER).collect();
        Frame::decode(ftype, flags, stream_id, &payload).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let wire = frame.encode();
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn every_frame_type_round_trips() {
        round_trip(Frame::Data { stream_id: 1, data: vec![1, 2, 3], end_stream: true });
        round_trip(Frame::Headers { stream_id: 3, block: vec![0x82, 0x87], end_stream: false });
        round_trip(Frame::Settings {
            params: vec![(settings::HEADER_TABLE_SIZE, 4096), (settings::ENABLE_PUSH, 0)],
            ack: false,
        });
        round_trip(Frame::Settings { params: Vec::new(), ack: true });
        round_trip(Frame::WindowUpdate { stream_id: 0, increment: 0xFF_0000 });
        round_trip(Frame::Ping { data: [7; 8], ack: true });
        round_trip(Frame::Goaway { last_stream_id: 5, error_code: 0, debug: b"bye".to_vec() });
        round_trip(Frame::RstStream { stream_id: 9, error_code: 8 });
        round_trip(Frame::Unknown { frame_type: 0xA, stream_id: 0, payload: vec![1; 5] });
    }

    #[test]
    fn encoded_layout_matches_rfc9113() {
        let wire = Frame::Data { stream_id: 1, data: vec![0xAB; 5], end_stream: true }.encode();
        // Length 5, type DATA, flags END_STREAM, stream 1, payload.
        assert_eq!(&wire[..FRAME_HEADER], &[0, 0, 5, 0, 1, 0, 0, 0, 1]);
        assert_eq!(&wire[FRAME_HEADER..], &[0xAB; 5]);
        let wire = Frame::Settings { params: vec![(4, 65_535)], ack: false }.encode();
        assert_eq!(wire, vec![0, 0, 6, 4, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0xFF, 0xFF]);
    }

    #[test]
    fn frames_reassemble_from_arbitrary_segmentation() {
        let frames = [
            Frame::Settings { params: vec![(1, 4096), (3, 100), (4, 65_535)], ack: false },
            Frame::Headers { stream_id: 1, block: vec![9; 40], end_stream: false },
            Frame::Data { stream_id: 1, data: vec![3; 33], end_stream: true },
            Frame::Goaway { last_stream_id: 1, error_code: 0, debug: Vec::new() },
        ];
        let wire: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(5) {
            dec.push(chunk);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.as_slice(), frames.as_slice());
    }

    #[test]
    fn corrupt_length_fields_are_rejected_not_awaited() {
        let mut dec = FrameDecoder::new();
        // Declared payload of 0xFFFFFF bytes: reject immediately instead
        // of buffering forever for data that will never arrive.
        dec.push(&[0xFF, 0xFF, 0xFF, 0x0, 0x0, 0, 0, 0, 1]);
        assert_eq!(dec.next_frame(), Err(H2Error::FrameTooLarge(0xFF_FFFF)));
    }

    #[test]
    fn malformed_fixed_layout_frames_error() {
        // WINDOW_UPDATE with a 3-byte payload.
        let mut dec = FrameDecoder::new();
        dec.push(&[0, 0, 3, 8, 0, 0, 0, 0, 0, 1, 2, 3]);
        assert_eq!(dec.next_frame(), Err(H2Error::BadFrame("WINDOW_UPDATE")));
        // SETTINGS payload not a multiple of 6.
        let mut dec = FrameDecoder::new();
        dec.push(&[0, 0, 5, 4, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5]);
        assert_eq!(dec.next_frame(), Err(H2Error::BadFrame("SETTINGS")));
    }

    #[test]
    fn preface_is_the_rfc_constant() {
        assert_eq!(PREFACE.len(), 24);
        assert!(PREFACE.starts_with(b"PRI * HTTP/2.0"));
    }
}
