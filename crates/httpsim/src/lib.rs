//! Byte-accurate HTTP codecs for the DoH cost experiments.
//!
//! The paper compares DNS transports byte-for-byte, so this crate
//! reproduces the exact wire encodings of the two HTTP generations DoH
//! runs over — it performs no I/O and holds no connection state beyond
//! what the encodings themselves require:
//!
//! * [`h1`] — HTTP/1.1 request/response text: start lines, header fields,
//!   `content-length` and chunked body framing, with incremental parsers
//!   that tolerate arbitrary stream segmentation and odd header casing.
//! * [`h2`] — HTTP/2 framing: the connection preface and DATA / HEADERS /
//!   SETTINGS / WINDOW_UPDATE / PING / GOAWAY / RST_STREAM frames with
//!   their RFC 9113 layouts, plus a streaming [`h2::FrameDecoder`].
//! * [`hpack`] — RFC 7541 header compression: static table, dynamic table
//!   with size-based eviction, Huffman string coding, and stateful
//!   [`hpack::Encoder`]/[`hpack::Decoder`] pairs. The dynamic table is why
//!   persistent DoH/2 connections amortise header bytes — the effect the
//!   `transport_shootout` example measures.
//!
//! The `dohmark-doh` crate layers these codecs over simulated TLS/TCP and
//! tags the resulting bytes `HttpHeader` / `HttpBody` / `HttpMgmt` so the
//! cost meter can reproduce the paper's Figure 5 layer breakdown.
//!
//! # Example: what one DoH query costs in headers
//!
//! ```
//! use dohmark_httpsim::hpack::{Decoder, Encoder};
//!
//! let request: Vec<(String, String)> = [
//!     (":method", "POST"),
//!     (":scheme", "https"),
//!     (":authority", "dns.example.net"),
//!     (":path", "/dns-query"),
//!     ("content-type", "application/dns-message"),
//!     ("content-length", "33"),
//! ]
//! .map(|(n, v)| (n.to_string(), v.to_string()))
//! .into();
//!
//! let mut encoder = Encoder::new();
//! let mut decoder = Decoder::new();
//! let first = encoder.encode(&request);
//! let second = encoder.encode(&request);
//! assert_eq!(decoder.decode(&first).unwrap(), request);
//! assert_eq!(decoder.decode(&second).unwrap(), request);
//! // The second identical request is six 1-byte table indices.
//! assert_eq!(second.len(), 6);
//! assert!(first.len() > 5 * second.len());
//! ```

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]
#![forbid(unsafe_code)]

pub mod h1;
pub mod h2;
pub mod hpack;
