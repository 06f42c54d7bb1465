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
//!
//! # Owned and borrowed frames
//!
//! [`Frame`] owns its payload; [`FrameRef`] is the same frame with every
//! variable-length payload a slice of whatever holds the bytes. Both are
//! one codec: [`FrameDecoder::next_ref`] parses a frame where it lies in
//! the decoder's buffer and [`FrameDecoder::next_frame`] is
//! [`FrameRef::to_owned`] of that view; [`Frame::encode`] is
//! [`Frame::encode_into`] a fresh buffer, and the two frames that carry a
//! message — [`write_headers`], whose block is written in place behind the
//! frame header and its length patched in afterwards, and [`write_data`] —
//! are what `encode_into` itself calls for them.
//!
//! A borrowed frame pins the decoder's buffer, so consuming it cannot
//! move bytes: the decoder only advances a consumed-prefix offset, and
//! [`FrameDecoder::push`] compacts — before it appends — once the
//! consumed prefix is longer than the bytes still pending. Every byte is
//! moved at most once per time it is overtaken, and the buffer never
//! holds more than twice its pending bytes plus the chunk just pushed.

use crate::StreamBuf;
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

/// Appends a HEADERS frame whose header block `block` writes directly
/// behind the frame header; the length field is patched once the block's
/// size is known. Header blocks here always fit one frame, so END_HEADERS
/// is always set and CONTINUATION never occurs.
pub fn write_headers(
    out: &mut Vec<u8>,
    stream_id: u32,
    end_stream: bool,
    block: impl FnOnce(&mut Vec<u8>),
) {
    let flags = if end_stream { FLAG_END_HEADERS | FLAG_END_STREAM } else { FLAG_END_HEADERS };
    let at = out.len();
    put_frame_header(out, 0, frame_type::HEADERS, flags, stream_id);
    block(out);
    let len = out.len() - at - FRAME_HEADER;
    debug_assert!(len < 1 << 24);
    out[at..at + 3].copy_from_slice(&(len as u32).to_be_bytes()[1..]);
}

/// Appends a DATA frame carrying `data`.
pub fn write_data(out: &mut Vec<u8>, stream_id: u32, data: &[u8], end_stream: bool) {
    let flags = if end_stream { FLAG_END_STREAM } else { 0 };
    put_frame_header(out, data.len(), frame_type::DATA, flags, stream_id);
    out.extend_from_slice(data);
}

impl Frame {
    /// Serialises the frame: 9-octet header plus payload.
    pub fn encode(&self) -> Vec<u8> {
        let payload = match self {
            Frame::Data { data, .. } => data.len(),
            Frame::Headers { block, .. } => block.len(),
            Frame::Settings { params, .. } => params.len() * 6,
            Frame::Goaway { debug, .. } => 8 + debug.len(),
            Frame::Unknown { payload, .. } => payload.len(),
            Frame::WindowUpdate { .. } | Frame::Ping { .. } | Frame::RstStream { .. } => 8,
        };
        let mut out = Vec::with_capacity(FRAME_HEADER + payload);
        self.encode_into(&mut out);
        out
    }

    /// [`Frame::encode`], the frame appended to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Data { stream_id, data, end_stream } => {
                write_data(out, *stream_id, data, *end_stream);
            }
            Frame::Headers { stream_id, block, end_stream } => {
                write_headers(out, *stream_id, *end_stream, |out| out.extend_from_slice(block));
            }
            Frame::Settings { params, ack } => {
                let flags = if *ack { FLAG_ACK } else { 0 };
                put_frame_header(out, params.len() * 6, frame_type::SETTINGS, flags, 0);
                for &(id, value) in params {
                    out.extend_from_slice(&id.to_be_bytes());
                    out.extend_from_slice(&value.to_be_bytes());
                }
            }
            Frame::WindowUpdate { stream_id, increment } => {
                put_frame_header(out, 4, frame_type::WINDOW_UPDATE, 0, *stream_id);
                out.extend_from_slice(&(increment & 0x7FFF_FFFF).to_be_bytes());
            }
            Frame::Ping { data, ack } => {
                let flags = if *ack { FLAG_ACK } else { 0 };
                put_frame_header(out, 8, frame_type::PING, flags, 0);
                out.extend_from_slice(data);
            }
            Frame::Goaway { last_stream_id, error_code, debug } => {
                put_frame_header(out, 8 + debug.len(), frame_type::GOAWAY, 0, 0);
                out.extend_from_slice(&(last_stream_id & 0x7FFF_FFFF).to_be_bytes());
                out.extend_from_slice(&error_code.to_be_bytes());
                out.extend_from_slice(debug);
            }
            Frame::RstStream { stream_id, error_code } => {
                put_frame_header(out, 4, frame_type::RST_STREAM, 0, *stream_id);
                out.extend_from_slice(&error_code.to_be_bytes());
            }
            Frame::Unknown { frame_type, stream_id, payload } => {
                put_frame_header(out, payload.len(), *frame_type, 0, *stream_id);
                out.extend_from_slice(payload);
            }
        }
    }
}

/// One HTTP/2 frame as it lies in a receive buffer: [`Frame`] with every
/// variable-length payload borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRef<'a> {
    /// DATA (§6.1): stream payload bytes.
    Data {
        /// Stream the data belongs to.
        stream_id: u32,
        /// Payload bytes.
        data: &'a [u8],
        /// END_STREAM flag.
        end_stream: bool,
    },
    /// HEADERS (§6.2) carrying a complete HPACK header block.
    Headers {
        /// Stream the header block opens.
        stream_id: u32,
        /// HPACK-encoded header block fragment.
        block: &'a [u8],
        /// END_STREAM flag.
        end_stream: bool,
    },
    /// SETTINGS (§6.5): parameter list, or an empty acknowledgement.
    Settings {
        /// Whole 6-octet entries: a 16-bit identifier, a 32-bit value.
        params: &'a [u8],
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
        debug: &'a [u8],
    },
    /// RST_STREAM (§6.4).
    RstStream {
        /// The stream being reset.
        stream_id: u32,
        /// Error code.
        error_code: u32,
    },
    /// Any frame type this model does not interpret.
    Unknown {
        /// Frame type code.
        frame_type: u8,
        /// Stream id from the frame header.
        stream_id: u32,
        /// Raw payload.
        payload: &'a [u8],
    },
}

fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

impl<'a> FrameRef<'a> {
    /// Types one frame from its header fields and complete payload.
    fn parse(
        ftype: u8,
        flags: u8,
        stream_id: u32,
        payload: &'a [u8],
    ) -> Result<FrameRef<'a>, H2Error> {
        let end_stream = flags & FLAG_END_STREAM != 0;
        match ftype {
            frame_type::DATA => Ok(FrameRef::Data { stream_id, data: payload, end_stream }),
            frame_type::HEADERS => Ok(FrameRef::Headers { stream_id, block: payload, end_stream }),
            frame_type::SETTINGS => {
                if payload.len() % 6 != 0 {
                    return Err(H2Error::BadFrame("SETTINGS"));
                }
                Ok(FrameRef::Settings { params: payload, ack: flags & FLAG_ACK != 0 })
            }
            frame_type::WINDOW_UPDATE => {
                if payload.len() != 4 {
                    return Err(H2Error::BadFrame("WINDOW_UPDATE"));
                }
                Ok(FrameRef::WindowUpdate { stream_id, increment: be32(payload) & 0x7FFF_FFFF })
            }
            frame_type::PING => {
                let data: [u8; 8] = payload.try_into().map_err(|_| H2Error::BadFrame("PING"))?;
                Ok(FrameRef::Ping { data, ack: flags & FLAG_ACK != 0 })
            }
            frame_type::GOAWAY => {
                if payload.len() < 8 {
                    return Err(H2Error::BadFrame("GOAWAY"));
                }
                Ok(FrameRef::Goaway {
                    last_stream_id: be32(payload) & 0x7FFF_FFFF,
                    error_code: be32(&payload[4..]),
                    debug: &payload[8..],
                })
            }
            frame_type::RST_STREAM => {
                if payload.len() != 4 {
                    return Err(H2Error::BadFrame("RST_STREAM"));
                }
                Ok(FrameRef::RstStream { stream_id, error_code: be32(payload) })
            }
            other => Ok(FrameRef::Unknown { frame_type: other, stream_id, payload }),
        }
    }

    /// The frame with its payload copied out of the buffer.
    pub fn to_owned(&self) -> Frame {
        match *self {
            FrameRef::Data { stream_id, data, end_stream } => {
                Frame::Data { stream_id, data: data.to_vec(), end_stream }
            }
            FrameRef::Headers { stream_id, block, end_stream } => {
                Frame::Headers { stream_id, block: block.to_vec(), end_stream }
            }
            FrameRef::Settings { params, ack } => {
                let params = params
                    .chunks_exact(6)
                    .map(|c| (u16::from_be_bytes([c[0], c[1]]), be32(&c[2..])))
                    .collect();
                Frame::Settings { params, ack }
            }
            FrameRef::WindowUpdate { stream_id, increment } => {
                Frame::WindowUpdate { stream_id, increment }
            }
            FrameRef::Ping { data, ack } => Frame::Ping { data, ack },
            FrameRef::Goaway { last_stream_id, error_code, debug } => {
                Frame::Goaway { last_stream_id, error_code, debug: debug.to_vec() }
            }
            FrameRef::RstStream { stream_id, error_code } => {
                Frame::RstStream { stream_id, error_code }
            }
            FrameRef::Unknown { frame_type, stream_id, payload } => {
                Frame::Unknown { frame_type, stream_id, payload: payload.to_vec() }
            }
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
/// with [`FrameDecoder::next_ref`] — or [`FrameDecoder::next_frame`] for
/// frames that outlive the next call.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: StreamBuf,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends received stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.push(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.pending().len()
    }

    /// Pops the next complete frame, if fully received, as a view of the
    /// decoder's buffer. A frame whose payload does not match its type's
    /// fixed layout is consumed and reported; a length field at or above
    /// 1 MiB is reported without consuming anything, on every call.
    pub fn next_ref(&mut self) -> Result<Option<FrameRef<'_>>, H2Error> {
        let pending = self.buf.pending();
        let Some(header) = pending.get(..FRAME_HEADER) else { return Ok(None) };
        let len =
            usize::from(header[0]) << 16 | usize::from(header[1]) << 8 | usize::from(header[2]);
        if len >= MAX_FRAME_PAYLOAD {
            return Err(H2Error::FrameTooLarge(len));
        }
        if pending.len() < FRAME_HEADER + len {
            return Ok(None);
        }
        let frame = self.buf.consume(FRAME_HEADER + len);
        let (header, payload) = frame.split_at(FRAME_HEADER);
        let stream_id = be32(&header[5..]) & 0x7FFF_FFFF;
        FrameRef::parse(header[3], header[4], stream_id, payload).map(Some)
    }

    /// [`FrameDecoder::next_ref`], the frame copied out of the buffer.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, H2Error> {
        Ok(self.next_ref()?.map(|frame| frame.to_owned()))
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

    /// 10 000 messages pushed in chunks that never end on a frame
    /// boundary: the buffer compacts as it goes.
    #[test]
    fn decoder_buffer_stays_bounded_with_a_partial_frame_always_pending() {
        const CHUNK: usize = 37;
        let mut message = Vec::new();
        write_headers(&mut message, 1, false, |block| block.extend_from_slice(&[0x82; 7]));
        let headers_len = message.len();
        write_data(&mut message, 1, &[0xAB; 90], true);
        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        // Stream offsets: of the bytes pushed, and of each frame end
        // generated.
        let (mut pushed, mut generated) = (0usize, 0usize);
        let mut ends = Vec::new();
        let mut messages = 0usize;
        while messages < 10_000 {
            while wire.len() < CHUNK {
                wire.extend_from_slice(&message);
                ends.extend([generated + headers_len, generated + message.len()]);
                generated += message.len();
            }
            let chunk = if ends.contains(&(pushed + CHUNK)) { CHUNK - 1 } else { CHUNK };
            dec.push(&wire[..chunk]);
            wire.drain(..chunk);
            pushed += chunk;
            ends.retain(|&end| end > pushed);
            while let Some(frame) = dec.next_ref().unwrap() {
                messages += usize::from(matches!(frame, FrameRef::Data { end_stream: true, .. }));
            }
            assert!(dec.buffered() > 0, "a partial frame is pending");
            let held = dec.buf.held();
            assert!(
                held <= 2 * (message.len() + CHUNK),
                "{held} bytes held after {messages} messages"
            );
        }
    }

    #[test]
    fn preface_is_the_rfc_constant() {
        assert_eq!(PREFACE.len(), 24);
        assert!(PREFACE.starts_with(b"PRI * HTTP/2.0"));
    }
}
