//! Byte-accurate HTTP codecs for the DoH cost experiments.
//!
//! The paper compares DNS transports byte-for-byte, so this crate
//! reproduces the exact wire encodings of the two HTTP generations DoH
//! runs over — it performs no I/O and holds no connection state beyond
//! what the encodings themselves require:
//!
//! * [`h1`] — HTTP/1.1 request/response text: start lines, header fields
//!   and `content-length` body framing, with incremental parsers that
//!   tolerate arbitrary stream segmentation and odd header casing and
//!   refuse a head that names a transfer coding.
//! * [`h2`] — HTTP/2 framing: the connection preface and DATA / HEADERS /
//!   SETTINGS / WINDOW_UPDATE / PING / GOAWAY / RST_STREAM frames with
//!   their RFC 9113 layouts, plus a streaming [`h2::FrameDecoder`].
//! * [`hpack`] — RFC 7541 header compression: static table, dynamic table
//!   with size-based eviction, Huffman string coding, and stateful
//!   [`hpack::Encoder`]/[`hpack::Decoder`] pairs. The dynamic table is why
//!   persistent DoH/2 connections amortise header bytes — the effect
//!   `crates/bench/tests/claims.rs` asserts.
//!
//! Every codec takes borrowed input and has a borrowed output under its
//! owned one: header lists are slices of anything that reads as a pair of
//! `&str`s, encoders append to a buffer the caller brings, and the
//! decoders hand out views of their own receive buffers
//! ([`hpack::Decoder::decode_with`], [`h2::FrameDecoder::next_ref`],
//! [`h1::RequestParser::next_ref`]) of which the owned results
//! (`decode`, `next_frame`, `next_request`) are copies. An HTTP/2 frame is
//! one type either way: [`h2::Frame`] owns its payloads and
//! `Frame<&[u8]>` borrows them, and both encode. A message crosses this
//! crate without a heap allocation per header, string or frame.
//!
//! # Surface
//!
//! What the workspace's transports, its benchmark and this crate's
//! property tests name, and nothing else. [`h1`]: the writers
//! [`h1::encode_request`] / [`h1::encode_response`] and their
//! [`h1::Encoded`], the [`h1::RequestParser`] / [`h1::ResponseParser`]
//! with their borrowed [`h1::RequestRef`] / [`h1::ResponseRef`] and
//! [`h1::Fields`], and the owned [`h1::Request`], which the benchmark's
//! layer run encodes and reads back through
//! [`h1::RequestParser::next_request`]. [`h2`]: [`h2::Frame`], owned or
//! borrowed, the in-place HEADERS writer [`h2::write_headers`], the
//! [`h2::FrameDecoder`], the connection [`h2::PREFACE`] and the
//! [`h2::settings`] identifiers with the [`h2::settings::entry`] that
//! carries one. [`hpack`]: the
//! [`hpack::Encoder`] / [`hpack::Decoder`] pair, whose `with_capacity`
//! constructors and `table_size` the eviction tests use, and
//! [`hpack::huffman_encode`] / [`hpack::huffman_decode`], which the
//! property tests drive. [`decimal`] writes a `content-length` without a
//! `String`. Each module has one error type.
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
//! let request: [(&str, &str); 6] = [
//!     (":method", "POST"),
//!     (":scheme", "https"),
//!     (":authority", "dns.example.net"),
//!     (":path", "/dns-query"),
//!     ("content-type", "application/dns-message"),
//!     ("content-length", "33"),
//! ];
//!
//! let mut encoder = Encoder::new();
//! let mut decoder = Decoder::new();
//! let first = encoder.encode(&request);
//! let second = encoder.encode(&request);
//! // Borrowed: each field is lent to the closure as two `&str`s.
//! let mut seen = 0;
//! decoder
//!     .decode_with(&first, |name, value| {
//!         assert_eq!((name, value), request[seen]);
//!         seen += 1;
//!     })
//!     .unwrap();
//! assert_eq!(seen, 6);
//! // Owned: the same walk, collected into a `Vec<(String, String)>`.
//! let owned = decoder.decode(&second).unwrap();
//! assert!(owned.iter().map(|(n, v)| (n.as_str(), v.as_str())).eq(request));
//! // The second identical request is six 1-byte table indices.
//! assert_eq!(second.len(), 6);
//! assert!(first.len() > 5 * second.len());
//! ```

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod buf;
pub mod h1;
pub mod h2;
pub mod hpack;

pub(crate) use buf::StreamBuf;

/// `n` in decimal, written into the caller's `digits` — the text of a
/// `content-length` or a status code without a `String`.
pub fn decimal(mut n: usize, digits: &mut [u8; 20]) -> &str {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII")
}
