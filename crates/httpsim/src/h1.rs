//! Byte-accurate HTTP/1.1 request/response codecs, framed by
//! `content-length` alone.
//!
//! A DoH/1.1 exchange is a `POST` whose body is one DNS query and a
//! `200 OK` whose body is one DNS response, each framed by
//! `content-length`: that header text is the paper's "Hdr" layer. This
//! module writes and reads exactly that text — start line,
//! `\r\n`-separated header fields, blank line, body. [`Encoded`] keeps
//! the head and the body bytes separate so transports can tag them
//! `HttpHeader` and `HttpBody` for the paper's layer breakdown.
//!
//! Parsing is incremental ([`RequestParser`] / [`ResponseParser`] are fed
//! arbitrary stream fragments) and, per RFC 9112, case-insensitive in
//! header names — `Content-Length`, `content-length` and `CONTENT-LENGTH`
//! all frame the body. A head that carries a `transfer-encoding` field,
//! whatever its case or value, is rejected with
//! [`H1Error::TransferCoding`]: no transfer coding is decoded here, so the
//! length of such a body cannot be known (RFC 9112 §6.1 lets a recipient
//! refuse a coding it does not implement). As after any other bad head,
//! the parser goes on with the bytes behind it.
//!
//! # One codec, two views
//!
//! Writing: [`encode_request`] and [`encode_response`] take the start
//! line's parts as `&str`s and the header list as any slice of pairs that
//! read as `&str`, write the head — adding a `content-length` unless the
//! list carries one — into one buffer and *move* the body into the
//! [`Encoded`] as it is. [`Request::encode`] is [`encode_request`]
//! applied to the struct's fields.
//!
//! Reading: there is one parser. The end of a head is found by a byte
//! scan for each `\n` of the blank line. A complete head is then checked
//! once where it lies in the receive buffer — UTF-8, then one walk over its
//! lines: the start line, a colon in every field line, no
//! `transfer-encoding` — and its first `content-length` read: the body is
//! that many bytes right behind the head, or none. The finished message is
//! cut from that same pass, so the head is not read again (unless its body
//! arrived in a later push).
//! Nothing is copied: a finished message is handed out as a
//! [`RequestRef`] / [`ResponseRef`] whose strings and body are slices of
//! that buffer, valid until the parser is touched again.
//! [`RequestParser::next_request`] builds the owned [`Request`] from that
//! same view.

use crate::{decimal, StreamBuf};
use std::fmt;

/// A parse failure; a real server would answer 400 and close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H1Error {
    /// The start line was not `METHOD target HTTP/1.1` / `HTTP/1.1 code …`.
    BadStartLine(String),
    /// A header line had no colon.
    BadHeader(String),
    /// `content-length` was present but not a number, or declared a body
    /// of 1 MiB or more.
    BadContentLength(String),
    /// The head carried a `transfer-encoding` field, whose value this is:
    /// a body in a transfer coding has a length this parser cannot know.
    TransferCoding(String),
    /// The head was not valid UTF-8.
    BadEncoding,
}

impl fmt::Display for H1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H1Error::BadStartLine(l) => write!(f, "malformed start line {l:?}"),
            H1Error::BadHeader(l) => write!(f, "malformed header line {l:?}"),
            H1Error::BadContentLength(v) => write!(f, "bad content-length {v:?}"),
            H1Error::TransferCoding(v) => write!(f, "unsupported transfer-encoding {v:?}"),
            H1Error::BadEncoding => write!(f, "head is not valid UTF-8"),
        }
    }
}

impl std::error::Error for H1Error {}

/// An HTTP/1.1 message head and body, serialised separately so the two can
/// be charged to different cost-meter layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoded {
    /// Start line + header fields + the terminating blank line.
    pub head: Vec<u8>,
    /// The body, which `content-length` frames.
    pub body: Vec<u8>,
}

impl Encoded {
    /// Head and body as one contiguous byte vector.
    pub fn concat(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.head.len() + self.body.len());
        out.extend_from_slice(&self.head);
        out.extend_from_slice(&self.body);
        out
    }
}

/// Sanity bound on the `content-length` a peer declares, the one
/// `h2::FrameDecoder` puts on its length field: 1 MiB is far above any DoH
/// message, and a length at or above it is rejected instead of buffering
/// for bytes that never come (or, near `usize::MAX`, overflowing its sum
/// with the head's length).
const MAX_DECLARED: usize = 1 << 20;

/// Writes the head — `start_line`'s parts back to back, the header
/// fields, a `content-length` when the headers carry none and there is a
/// body (or `always_length`), the blank line — and moves the body behind
/// it.
fn encode_message<N: AsRef<str>, V: AsRef<str>>(
    start_line: &[&str],
    headers: &[(N, V)],
    body: Vec<u8>,
    always_length: bool,
) -> Encoded {
    let fields = || headers.iter().map(|(name, value)| (name.as_ref(), value.as_ref()));
    let add_length = (always_length || !body.is_empty())
        && !fields().any(|(name, _)| name.eq_ignore_ascii_case("content-length"));
    let field_bytes: usize = fields().map(|(name, value)| name.len() + value.len() + 4).sum();
    let start_bytes: usize = start_line.iter().map(|part| part.len()).sum();
    let mut head = Vec::with_capacity(start_bytes + field_bytes + 40);
    for part in start_line {
        head.extend_from_slice(part.as_bytes());
    }
    head.extend_from_slice(b"\r\n");
    for (name, value) in fields() {
        head.extend_from_slice(name.as_bytes());
        head.extend_from_slice(b": ");
        head.extend_from_slice(value.as_bytes());
        head.extend_from_slice(b"\r\n");
    }
    if add_length {
        head.extend_from_slice(b"content-length: ");
        head.extend_from_slice(decimal(body.len(), &mut [0; 20]).as_bytes());
        head.extend_from_slice(b"\r\n");
    }
    head.extend_from_slice(b"\r\n");
    Encoded { head, body }
}

/// Serialises a request from its parts. A `content-length` field is
/// appended when the body is non-empty and the headers carry none of
/// their own.
pub fn encode_request<N: AsRef<str>, V: AsRef<str>>(
    method: &str,
    target: &str,
    headers: &[(N, V)],
    body: Vec<u8>,
) -> Encoded {
    encode_message(&[method, " ", target, " HTTP/1.1"], headers, body, false)
}

/// Serialises a response from its parts; as [`encode_request`], except
/// that a `content-length` is added even for an empty body (a response
/// without one would only end at connection close).
pub fn encode_response<N: AsRef<str>, V: AsRef<str>>(
    status: u16,
    reason: &str,
    headers: &[(N, V)],
    body: Vec<u8>,
) -> Encoded {
    let mut digits = [0; 20];
    let status = decimal(usize::from(status), &mut digits);
    encode_message(&["HTTP/1.1 ", status, " ", reason], headers, body, true)
}

/// An HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, e.g. `POST`.
    pub method: String,
    /// Request target, e.g. `/dns-query`.
    pub target: String,
    /// Header fields in order, names with their original casing.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Request {
    /// A request with the given line and headers.
    pub fn new(method: &str, target: &str, headers: Vec<(String, String)>) -> Request {
        Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body: Vec::new(),
        }
    }

    /// Sets the body (builder style).
    pub fn with_body(mut self, body: Vec<u8>) -> Request {
        self.body = body;
        self
    }

    /// Serialises the request: [`encode_request`] of its fields.
    pub fn encode(&self) -> Encoded {
        encode_request(&self.method, &self.target, &self.headers, self.body.clone())
    }
}

// ---------------------------------------------------------------------
// Incremental parsing
// ---------------------------------------------------------------------

/// `text` split at the first `sep`, an ASCII octet found by a byte scan:
/// `str::split_once` without its searcher, for the short lines of a head.
fn split_at_octet(text: &str, sep: u8) -> Option<(&str, &str)> {
    let at = text.bytes().position(|b| b == sep)?;
    Some((&text[..at], &text[at + 1..]))
}

/// `METHOD target HTTP/1.x` → `(method, target)`.
fn request_line(line: &str) -> Result<(&str, &str), H1Error> {
    let bad = || H1Error::BadStartLine(line.to_string());
    let (method, rest) = split_at_octet(line, b' ').ok_or_else(bad)?;
    let (target, version) = split_at_octet(rest, b' ').ok_or_else(bad)?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad());
    }
    Ok((method, target))
}

/// `HTTP/1.x code reason` → `(code, reason)`; the reason may be missing.
fn status_line(line: &str) -> Result<(u16, &str), H1Error> {
    let bad = || H1Error::BadStartLine(line.to_string());
    let (version, rest) = split_at_octet(line, b' ').ok_or_else(bad)?;
    let (status, reason) = split_at_octet(rest, b' ').unwrap_or((rest, ""));
    match status.parse() {
        Ok(status) if version.starts_with("HTTP/1.") => Ok((status, reason)),
        _ => Err(bad()),
    }
}

/// `text` cut at its first `\r\n`: the line before it and the text behind
/// it, or all of `text` and `None`. Each `\n` is found by a byte scan, and
/// the byte before it checked.
fn cut_line(text: &str) -> (&str, Option<&str>) {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(at) = bytes[from..].iter().position(|&b| b == b'\n') {
        let at = from + at;
        if at > 0 && bytes[at - 1] == b'\r' {
            return (&text[..at - 1], Some(&text[at + 1..]));
        }
        from = at + 1;
    }
    (text, None)
}

/// A field line split at its first colon, both sides trimmed; a line
/// without one is the error.
fn field_line(line: &str) -> Result<(&str, &str), H1Error> {
    let (name, value) =
        split_at_octet(line, b':').ok_or_else(|| H1Error::BadHeader(line.to_string()))?;
    Ok((name.trim(), value.trim()))
}

/// The header-field lines of a head, between the start line and the blank
/// line, as they lie in the parser's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fields<'a>(&'a str);

impl<'a> Fields<'a> {
    /// The lines in order, blank ones skipped.
    fn lines(self) -> impl Iterator<Item = &'a str> {
        let mut rest = Some(self.0);
        std::iter::from_fn(move || loop {
            let (line, next) = cut_line(rest?);
            rest = next;
            if !line.is_empty() {
                return Some(line);
            }
        })
    }

    /// The `(name, value)` pairs in order, names with their original
    /// casing.
    pub fn iter(self) -> impl Iterator<Item = (&'a str, &'a str)> {
        // A parser hands out only lines it has checked.
        self.lines().flat_map(field_line)
    }

    fn to_owned(self) -> Vec<(String, String)> {
        self.iter().map(|(name, value)| (name.to_string(), value.to_string())).collect()
    }
}

/// A complete request as it lies in a [`RequestParser`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRef<'a> {
    /// Request method, e.g. `POST`.
    pub method: &'a str,
    /// Request target, e.g. `/dns-query`.
    pub target: &'a str,
    /// Header fields in order.
    pub fields: Fields<'a>,
    /// The body.
    pub body: &'a [u8],
}

/// A complete response as it lies in a [`ResponseParser`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseRef<'a> {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// Reason phrase, e.g. `OK`.
    pub reason: &'a str,
    /// Header fields in order.
    pub fields: Fields<'a>,
    /// The body.
    pub body: &'a [u8],
}

/// Where `\r\n\r\n` first starts at or after `from`: a byte scan for each
/// `\n`, then a look at the three bytes before it.
fn blank_line(bytes: &[u8], from: usize) -> Option<usize> {
    let mut at = from + 3;
    while at < bytes.len() {
        let end = at + bytes[at..].iter().position(|&b| b == b'\n')?;
        if bytes[end - 3..end] == *b"\r\n\r" {
            return Some(end - 3);
        }
        at = end + 1;
    }
    None
}

/// A head that passed [`scan_head`]: its start line as read by the
/// parser's line reader, its field lines, and the length of its body.
struct Head<'a, L> {
    line: L,
    fields: Fields<'a>,
    body: usize,
}

/// Validates a complete head (without its blank line) where it lies:
/// UTF-8 first (the check that yields the `&str` every view borrows), then
/// one walk over its lines — the start line through `start`, each field
/// line's colon, any `transfer-encoding`, and the first `content-length`
/// (the body's length; 0 without one). The first failure in that order is
/// the error.
fn scan_head<'a, L>(
    head: &'a [u8],
    start: fn(&'a str) -> Result<L, H1Error>,
) -> Result<Head<'a, L>, H1Error> {
    let head = std::str::from_utf8(head).map_err(|_| H1Error::BadEncoding)?;
    let (start_line, fields) = cut_line(head);
    let line = start(start_line)?;
    let fields = Fields(fields.unwrap_or_default());
    let mut content_length = None;
    for field in fields.lines() {
        let (name, value) = field_line(field)?;
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(H1Error::TransferCoding(value.to_string()));
        }
        if name.eq_ignore_ascii_case("content-length") {
            content_length.get_or_insert(value);
        }
    }
    let body = match content_length {
        None => 0,
        Some(value) => match value.parse() {
            Ok(len) if len < MAX_DECLARED => len,
            _ => return Err(H1Error::BadContentLength(value.to_string())),
        },
    };
    Ok(Head { line, fields, body })
}

/// Where the parser is in the message at the front of its buffer. Offsets
/// count from the first pending byte; nothing of a message is consumed
/// before all of it has arrived.
#[derive(Debug, Clone, Copy)]
enum ParseState {
    /// No complete head yet: `\r\n\r\n` does not start in the first
    /// `scanned` bytes.
    Head { scanned: usize },
    /// A valid head of `head` bytes, then a body of `len`.
    Body { head: usize, len: usize },
}

/// A finished message: `(start line, field lines, body)`.
type Parsed<'a, L> = (L, Fields<'a>, &'a [u8]);

/// Streaming parser core shared by [`RequestParser`] and
/// [`ResponseParser`], which differ only in how they read a start line.
#[derive(Debug)]
struct Parser {
    buf: StreamBuf,
    state: ParseState,
}

impl Parser {
    fn new() -> Parser {
        Parser { buf: StreamBuf::default(), state: ParseState::Head { scanned: 0 } }
    }

    /// Pops the next complete message, if one has fully arrived, as a
    /// view of the parser's buffer, its start line read by `start`.
    ///
    /// A head is scanned once, when it is complete, and the view is cut
    /// from that scan. Only a head whose body is still on its way is
    /// scanned again, once the body is in: the state between two calls is
    /// offsets, not views of the buffer that `push` may move. After a bad
    /// head the state is back at `Head`, and the stream may go on behind
    /// it.
    fn next_message<'a, L>(
        &'a mut self,
        start: fn(&'a str) -> Result<L, H1Error>,
    ) -> Result<Option<Parsed<'a, L>>, H1Error> {
        let pending = self.buf.pending();
        let head = match self.state {
            ParseState::Head { scanned } => match blank_line(pending, scanned) {
                Some(at) => at + 4,
                None => {
                    self.state = ParseState::Head { scanned: pending.len().saturating_sub(3) };
                    return Ok(None);
                }
            },
            // `len` is below MAX_DECLARED, so the sum cannot overflow.
            ParseState::Body { head, len } if pending.len() < head + len => return Ok(None),
            ParseState::Body { head, .. } => head,
        };
        let next_head = ParseState::Head { scanned: 0 };
        match scan_head(&pending[..head - 4], start) {
            Err(bad) => {
                self.state = next_head;
                self.buf.consume(head);
                Err(bad)
            }
            Ok(parsed) if pending.len() < head + parsed.body => {
                self.state = ParseState::Body { head, len: parsed.body };
                Ok(None)
            }
            Ok(Head { line, fields, body }) => {
                self.state = next_head;
                let message = self.buf.consume(head + body);
                Ok(Some((line, fields, &message[head..])))
            }
        }
    }
}

/// Incremental HTTP/1.1 request parser (server side).
#[derive(Debug)]
pub struct RequestParser {
    inner: Parser,
}

impl Default for RequestParser {
    fn default() -> RequestParser {
        RequestParser::new()
    }
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> RequestParser {
        RequestParser { inner: Parser::new() }
    }

    /// Appends received stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.inner.buf.push(bytes);
    }

    /// Pops the next complete request, if one has fully arrived, as a
    /// view of the parser's buffer.
    pub fn next_ref(&mut self) -> Result<Option<RequestRef<'_>>, H1Error> {
        let parsed = self.inner.next_message(request_line)?;
        Ok(parsed.map(|((method, target), fields, body)| RequestRef {
            method,
            target,
            fields,
            body,
        }))
    }

    /// [`RequestParser::next_ref`], the request copied out of the buffer.
    pub fn next_request(&mut self) -> Result<Option<Request>, H1Error> {
        Ok(self.next_ref()?.map(|r| Request {
            method: r.method.to_string(),
            target: r.target.to_string(),
            headers: r.fields.to_owned(),
            body: r.body.to_vec(),
        }))
    }
}

/// Incremental HTTP/1.1 response parser (client side).
#[derive(Debug)]
pub struct ResponseParser {
    inner: Parser,
}

impl Default for ResponseParser {
    fn default() -> ResponseParser {
        ResponseParser::new()
    }
}

impl ResponseParser {
    /// An empty parser.
    pub fn new() -> ResponseParser {
        ResponseParser { inner: Parser::new() }
    }

    /// Appends received stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.inner.buf.push(bytes);
    }

    /// Pops the next complete response, if one has fully arrived, as a
    /// view of the parser's buffer.
    pub fn next_ref(&mut self) -> Result<Option<ResponseRef<'_>>, H1Error> {
        let parsed = self.inner.next_message(status_line)?;
        Ok(parsed.map(|((status, reason), fields, body)| ResponseRef {
            status,
            reason,
            fields,
            body,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_FIELDS: [(&str, &str); 0] = [];

    fn doh_request(body: &[u8]) -> Request {
        Request::new(
            "POST",
            "/dns-query",
            vec![
                ("host".to_string(), "dns.example.net".to_string()),
                ("accept".to_string(), "application/dns-message".to_string()),
                ("content-type".to_string(), "application/dns-message".to_string()),
            ],
        )
        .with_body(body.to_vec())
    }

    /// The value of the first field named `name`, in any case.
    fn field<'a>(fields: Fields<'a>, name: &str) -> Option<&'a str> {
        fields.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, value)| value)
    }

    #[test]
    fn request_serialises_to_exact_text() {
        let encoded = doh_request(b"abc").encode();
        let text = String::from_utf8(encoded.concat()).unwrap();
        assert_eq!(
            text,
            "POST /dns-query HTTP/1.1\r\n\
             host: dns.example.net\r\n\
             accept: application/dns-message\r\n\
             content-type: application/dns-message\r\n\
             content-length: 3\r\n\
             \r\n\
             abc"
        );
    }

    #[test]
    fn request_round_trips_incrementally() {
        let req = doh_request(&[0, 1, 2, 250, 251, 252]);
        let wire = req.encode().concat();
        let mut parser = RequestParser::new();
        for chunk in wire.chunks(7) {
            parser.push(chunk);
        }
        let got = parser.next_ref().unwrap().unwrap();
        assert_eq!(got.method, "POST");
        assert_eq!(got.target, "/dns-query");
        assert_eq!(got.body, req.body);
        assert_eq!(field(got.fields, "Content-Type"), Some("application/dns-message"));
        assert!(parser.next_request().unwrap().is_none());
    }

    #[test]
    fn header_lookup_ignores_case() {
        let wire = b"GET / HTTP/1.1\r\nHoSt: example.com\r\nCONTENT-LENGTH: 2\r\n\r\nhi";
        let mut parser = RequestParser::new();
        parser.push(wire);
        let req = parser.next_ref().unwrap().unwrap();
        assert_eq!(field(req.fields, "host"), Some("example.com"));
        assert_eq!(req.body, b"hi");
        // Original casing is preserved in the parsed list.
        assert_eq!(req.fields.iter().next(), Some(("HoSt", "example.com")));
    }

    /// Whatever its case or coding, a `transfer-encoding` head is refused
    /// by both parsers, and a well-formed message pipelined behind it
    /// still parses.
    #[test]
    fn transfer_coded_heads_are_rejected_and_the_stream_goes_on() {
        for coded in [[("Transfer-Encoding", "chunked")], [("transfer-encoding", "gzip")]] {
            let refused = H1Error::TransferCoding(coded[0].1.to_string());
            let mut wire = encode_request("POST", "/dns-query", &coded, Vec::new()).concat();
            wire.extend(doh_request(b"query").encode().concat());
            let mut parser = RequestParser::new();
            parser.push(&wire);
            assert_eq!(parser.next_request(), Err(refused.clone()), "{coded:?}");
            assert_eq!(parser.next_ref().unwrap().unwrap().body, b"query", "{coded:?}");
            assert_eq!(parser.next_ref(), Ok(None), "{coded:?}");

            // The response head carries a `content-length: 0` as well.
            let mut wire = encode_response(200, "OK", &coded, Vec::new()).concat();
            wire.extend(encode_response(200, "OK", &NO_FIELDS, b"answer".to_vec()).concat());
            let mut parser = ResponseParser::new();
            parser.push(&wire);
            assert_eq!(parser.next_ref(), Err(refused), "{coded:?}");
            assert_eq!(parser.next_ref().unwrap().unwrap().body, b"answer", "{coded:?}");
            assert_eq!(parser.next_ref(), Ok(None), "{coded:?}");
        }
    }

    #[test]
    fn pipelined_messages_parse_in_order() {
        let mut parser = ResponseParser::new();
        let mut wire = encode_response(200, "OK", &NO_FIELDS, b"first".to_vec()).concat();
        wire.extend(encode_response(404, "Not Found", &NO_FIELDS, b"second!".to_vec()).concat());
        parser.push(&wire);
        assert_eq!(parser.next_ref().unwrap().unwrap().body, b"first");
        let second = parser.next_ref().unwrap().unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(second.reason, "Not Found");
        assert_eq!(second.body, b"second!");
        assert!(parser.next_ref().unwrap().is_none());
    }

    #[test]
    fn empty_body_response_always_carries_content_length() {
        let wire = encode_response(204, "No Content", &NO_FIELDS, Vec::new());
        let text = String::from_utf8(wire.head).unwrap();
        assert!(text.contains("content-length: 0\r\n"), "{text}");
    }

    #[test]
    fn get_request_without_body_has_no_framing_header() {
        let wire = Request::new("GET", "/", Vec::new()).encode();
        assert_eq!(String::from_utf8(wire.head.clone()).unwrap(), "GET / HTTP/1.1\r\n\r\n");
        let mut parser = RequestParser::new();
        parser.push(&wire.concat());
        let req = parser.next_request().unwrap().unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        let mut parser = RequestParser::new();
        parser.push(b"NOT-HTTP\r\n\r\n");
        assert!(matches!(parser.next_request(), Err(H1Error::BadStartLine(_))));
        let mut parser = RequestParser::new();
        parser.push(b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n");
        assert!(matches!(parser.next_request(), Err(H1Error::BadHeader(_))));
        let mut parser = ResponseParser::new();
        parser.push(b"HTTP/1.1 200 OK\r\ncontent-length: banana\r\n\r\n");
        assert!(matches!(parser.next_ref(), Err(H1Error::BadContentLength(_))));
        // From the 1 MiB bound up to usize::MAX, where the head's length
        // plus the declared one would overflow.
        for length in ["18446744073709551615", "1048576"] {
            let declared = format!("content-length: {length}\r\n\r\nabc");
            let mut parser = ResponseParser::new();
            parser.push(format!("HTTP/1.1 200 OK\r\n{declared}").as_bytes());
            let got = parser.next_ref();
            assert!(matches!(got, Err(H1Error::BadContentLength(_))), "{length}: {got:?}");
            let mut parser = RequestParser::new();
            parser.push(format!("POST /dns-query HTTP/1.1\r\n{declared}").as_bytes());
            let got = parser.next_request();
            assert!(matches!(got, Err(H1Error::BadContentLength(_))), "{length}: {got:?}");
        }
        let mut parser = ResponseParser::new();
        parser.push(b"HTTP/1.1 200 OK\r\ncontent-length: 1048575\r\n\r\nabc");
        assert_eq!(parser.next_ref(), Ok(None), "just under the bound still buffers");
    }

    /// 10 000 pipelined messages pushed in chunks that never end on a
    /// message boundary: the buffer compacts as it goes.
    #[test]
    fn parser_buffer_stays_bounded_with_a_partial_message_always_pending() {
        const CHUNK: usize = 37;
        let bodies = [vec![7u8; 90], vec![8u8; 41], vec![9u8; 3]];
        let messages: Vec<Vec<u8>> =
            bodies.iter().map(|body| doh_request(body).encode().concat()).collect();
        let largest = messages.iter().map(Vec::len).max().unwrap();
        let mut parser = RequestParser::new();
        let mut wire = Vec::new();
        // Stream offsets: of the bytes pushed, and of each message end
        // generated but not yet pushed.
        let (mut pushed, mut generated) = (0usize, 0usize);
        let mut ends = Vec::new();
        let (mut sent, mut parsed) = (0usize, 0usize);
        while parsed < 10_000 {
            while wire.len() < CHUNK {
                let message = &messages[sent % messages.len()];
                wire.extend_from_slice(message);
                sent += 1;
                generated += message.len();
                ends.push(generated);
            }
            let chunk = if ends.contains(&(pushed + CHUNK)) { CHUNK - 1 } else { CHUNK };
            parser.push(&wire[..chunk]);
            wire.drain(..chunk);
            pushed += chunk;
            ends.retain(|&end| end > pushed);
            while let Some(request) = parser.next_ref().unwrap() {
                assert_eq!(request.body, bodies[parsed % bodies.len()]);
                parsed += 1;
            }
            assert!(!parser.inner.buf.pending().is_empty(), "a partial message is pending");
            let held = parser.inner.buf.held();
            assert!(held <= 2 * (largest + CHUNK), "{held} bytes held after {parsed} messages");
        }
    }

    /// SplitMix64, as in `hpack`'s tests: `below(n)` draws from `0..n`.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15);
        move |n| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn blank_line_search_agrees_with_a_window_compare() {
        let window = |bytes: &[u8], from: usize| {
            let at = bytes[from..].windows(4).position(|w| w == b"\r\n\r\n")?;
            Some(from + at)
        };
        for seed in 0..2048u64 {
            let mut below = rng(seed);
            // Mostly line ends, so that near misses (`\r\n\r`, `\n\r\n`,
            // `\r\r\n`) are common.
            let bytes: Vec<u8> =
                (0..below(48)).map(|_| [b'\r', b'\n', b'a', b':'][below(4) as usize]).collect();
            for from in 0..=bytes.len() {
                assert_eq!(blank_line(&bytes, from), window(&bytes, from), "{bytes:?} from {from}");
            }
        }
    }

    /// What one parser hands out, owned: each message or error in order.
    fn drain(parser: &mut RequestParser, out: &mut Vec<Result<Request, H1Error>>) {
        loop {
            match parser.next_request() {
                Ok(None) => return,
                Ok(Some(request)) => out.push(Ok(request)),
                Err(bad) => out.push(Err(bad)),
            }
        }
    }

    /// A pipelined stream of good and bad heads, cut in two at every
    /// point: the head-end search resumes where it stopped, a head whose
    /// body is still missing waits for it, and each cut reads exactly what
    /// the whole stream reads.
    #[test]
    fn every_cut_of_a_pipelined_stream_parses_alike() {
        let mut wire = doh_request(b"first").encode().concat();
        wire.extend(b"GET / HTTP/1.1\r\nno colon\r\n\r\n");
        wire.extend(
            encode_request("GET", "/", &[("Transfer-Encoding", "chunked")], Vec::new()).concat(),
        );
        wire.extend(b"\r\n\r\nGET /x HTTP/1.0\r\n\r\n");
        wire.extend(doh_request(&[b'\r', b'\n', b'\r', b'\n', 0]).encode().concat());
        wire.extend(b"POST / HTTP/1.1\r\ncontent-length: 3\r\n\r\nab");
        let mut whole = Vec::new();
        let mut parser = RequestParser::new();
        parser.push(&wire);
        drain(&mut parser, &mut whole);
        assert_eq!(whole.iter().filter(|message| message.is_ok()).count(), 3, "{whole:?}");
        assert_eq!(whole.len(), 6, "{whole:?}");
        for cut in 0..=wire.len() {
            let mut got = Vec::new();
            let mut parser = RequestParser::new();
            parser.push(&wire[..cut]);
            drain(&mut parser, &mut got);
            parser.push(&wire[cut..]);
            drain(&mut parser, &mut got);
            assert_eq!(got, whole, "cut at {cut}");
        }
    }

    /// A head as the tests compare it: the start line's parts joined by a
    /// space, the fields, the body's length.
    type HeadParts<'a> = (String, Vec<(&'a str, &'a str)>, usize);

    /// The head validation the single pass replaced: `str` splitting on
    /// `"\r\n"`, `splitn` on the start line, a trimmed `split_once` per
    /// field line. It returns the start line's parts, the fields, and the
    /// body's length.
    fn split_head(head: &[u8], requests: bool) -> Result<HeadParts<'_>, H1Error> {
        let head = std::str::from_utf8(head).map_err(|_| H1Error::BadEncoding)?;
        let (start_line, fields) = head.split_once("\r\n").unwrap_or((head, ""));
        let bad_start = || H1Error::BadStartLine(start_line.to_string());
        let mut parts = start_line.splitn(3, ' ');
        let line = if requests {
            match (parts.next(), parts.next(), parts.next()) {
                (Some(method), Some(target), Some(v)) if v.starts_with("HTTP/1.") => {
                    format!("{method} {target}")
                }
                _ => return Err(bad_start()),
            }
        } else {
            let version = parts.next().unwrap_or_default();
            let status = parts.next().and_then(|s| s.parse::<u16>().ok());
            match (version.starts_with("HTTP/1."), status) {
                (true, Some(status)) => format!("{status} {}", parts.next().unwrap_or_default()),
                _ => return Err(bad_start()),
            }
        };
        let mut pairs = Vec::new();
        let mut content_length = None;
        for line in fields.split("\r\n").filter(|line| !line.is_empty()) {
            let (name, value) =
                line.split_once(':').ok_or_else(|| H1Error::BadHeader(line.to_string()))?;
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(H1Error::TransferCoding(value.to_string()));
            }
            if name.eq_ignore_ascii_case("content-length") {
                content_length.get_or_insert(value);
            }
            pairs.push((name, value));
        }
        let Some(value) = content_length else { return Ok((line, pairs, 0)) };
        match value.parse() {
            Ok(len) if len < MAX_DECLARED => Ok((line, pairs, len)),
            _ => Err(H1Error::BadContentLength(value.to_string())),
        }
    }

    /// Seeded heads spliced from the pieces a head is made of, and from
    /// those that trip each rule — non-UTF-8 bytes, bare `\r` and `\n`,
    /// Unicode and ASCII white space around names and values, signed and
    /// overlong lengths: the single pass returns what the `str` splitting
    /// returns, value or error, for request and status lines alike.
    #[test]
    fn scan_head_agrees_with_str_splitting() {
        const PIECES: [&[u8]; 24] = [
            b"\r\n",
            b"\r\n",
            b"\r\n",
            b"\r",
            b"\n",
            b" ",
            b" ",
            b":",
            b":",
            b"\t",
            b"\x0b",
            "\u{a0}".as_bytes(),
            "\u{85}".as_bytes(),
            b"\xff",
            b"HTTP/1.1",
            b"HTTP/1.",
            b"GET",
            b"200",
            b"+7",
            b"99999999999999999999",
            b"content-length",
            b"Transfer-Encoding",
            b"x-a",
            b"OK",
        ];
        let mut seen = [0usize; 2];
        for seed in 0..20_000u64 {
            let mut below = rng(seed);
            let requests = seed % 2 == 0;
            let mut head: Vec<u8> = match (requests, below(3)) {
                (_, 0) => Vec::new(),
                (true, _) => b"POST /dns-query HTTP/1.1\r\n".to_vec(),
                (false, _) => b"HTTP/1.1 200 OK\r\n".to_vec(),
            };
            for _ in 0..below(16) {
                head.extend_from_slice(PIECES[below(PIECES.len() as u64) as usize]);
            }
            let expected = split_head(&head, requests);
            seen[usize::from(expected.is_ok())] += 1;
            let got = if requests {
                scan_head(&head, request_line).map(|h| {
                    (format!("{} {}", h.line.0, h.line.1), h.fields.iter().collect(), h.body)
                })
            } else {
                scan_head(&head, status_line).map(|h| {
                    (format!("{} {}", h.line.0, h.line.1), h.fields.iter().collect(), h.body)
                })
            };
            assert_eq!(got, expected, "seed {seed}: {:?}", String::from_utf8_lossy(&head));
        }
        assert!(seen.iter().all(|&n| n > 1000), "valid and invalid heads both drawn: {seen:?}");
    }
}
