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
//! Every codec takes borrowed input and has a borrowed output under its
//! owned one: header lists are slices of anything that reads as a pair of
//! `&str`s, encoders append to a buffer the caller brings, and the
//! decoders hand out views of their own receive buffers
//! ([`hpack::Decoder::decode_with`], [`h2::FrameDecoder::next_ref`],
//! [`h1::RequestParser::next_ref`]) of which the owned results
//! (`decode`, `next_frame`, `next_request`) are copies. A message crosses
//! this crate without a heap allocation per header, string or frame.
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
