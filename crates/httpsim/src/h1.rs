//! Byte-accurate HTTP/1.1 request/response codecs.
//!
//! [`Request`] and [`Response`] serialise to exactly the text a real
//! HTTP/1.1 implementation puts on the wire — start line, `\r\n`-separated
//! header fields, blank line, then the body, framed either by
//! `content-length` or by `transfer-encoding: chunked`. [`Encoded`] keeps
//! the head and the body bytes separate so transports can tag them
//! `HttpHeader` and `HttpBody` for the paper's layer breakdown.
//!
//! Parsing is incremental ([`RequestParser`] / [`ResponseParser`] are fed
//! arbitrary stream fragments) and, per RFC 9112, case-insensitive in
//! header names — `Content-Length`, `content-length` and `CONTENT-LENGTH`
//! all frame the body.
//!
//! # One codec, two views
//!
//! Writing: [`encode_request`] and [`encode_response`] take the start
//! line's parts as `&str`s and the header list as any slice of pairs that
//! read as `&str`, write the head into one buffer and *move* the body into
//! the [`Encoded`] (a chunked body is the one that has to be rewritten).
//! [`Request::encode`] and [`Response::encode`] are those functions
//! applied to the struct's fields.
//!
//! Reading: there is one parser. When a head is complete it is validated
//! where it lies in the receive buffer — UTF-8, the start line, a colon in
//! every field line — and scanned for the first `transfer-encoding` and
//! `content-length`, the one framing decision. Nothing is copied: a
//! finished message is handed out as a [`RequestRef`] / [`ResponseRef`]
//! whose strings are slices of that buffer, and whose body is the
//! `content-length` bytes right behind the head (a chunked body is
//! reassembled in a buffer the parser owns and reuses). The view is valid
//! until the parser is touched again. [`RequestParser::next_request`] and
//! [`ResponseParser::next_response`] build the owned [`Request`] /
//! [`Response`] from that same view.

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
    /// A chunk-size line was not hexadecimal, or named a chunk of 1 MiB
    /// or more.
    BadChunkSize(String),
    /// The head was not valid UTF-8.
    BadEncoding,
}

impl fmt::Display for H1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H1Error::BadStartLine(l) => write!(f, "malformed start line {l:?}"),
            H1Error::BadHeader(l) => write!(f, "malformed header line {l:?}"),
            H1Error::BadContentLength(v) => write!(f, "bad content-length {v:?}"),
            H1Error::BadChunkSize(l) => write!(f, "bad chunk size {l:?}"),
            H1Error::BadEncoding => write!(f, "head is not valid UTF-8"),
        }
    }
}

impl std::error::Error for H1Error {}

/// Case-insensitive header lookup over `(name, value)` pairs.
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
}

/// An HTTP/1.1 message head and body, serialised separately so the two can
/// be charged to different cost-meter layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoded {
    /// Start line + header fields + the terminating blank line.
    pub head: Vec<u8>,
    /// The framed body (chunk-size lines included when chunked).
    pub body: Vec<u8>,
}

impl Encoded {
    /// Total wire length.
    pub fn wire_len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// Head and body as one contiguous byte vector.
    pub fn concat(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.head);
        out.extend_from_slice(&self.body);
        out
    }
}

/// How a message frames its body on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    Length(usize),
    Chunked,
    None,
}

/// Sanity bound on a length the peer declares — a `content-length` or a
/// chunk size — the one `h2::FrameDecoder` puts on its length field: 1 MiB
/// is far above any DoH message, and a length at or above it is rejected
/// instead of buffering for bytes that never come (or, near `usize::MAX`,
/// overflowing the sum with the head's length or the chunk's CRLF).
const MAX_DECLARED: usize = 1 << 20;

/// The framing decision, for the writer and the parser alike: the first
/// `transfer-encoding` if it says `chunked`, else the first
/// `content-length`.
fn framing_of<'a>(fields: impl Iterator<Item = (&'a str, &'a str)>) -> Result<Framing, H1Error> {
    let mut transfer_encoding = None;
    let mut content_length = None;
    for (name, value) in fields {
        if name.eq_ignore_ascii_case("transfer-encoding") {
            transfer_encoding.get_or_insert(value);
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length.get_or_insert(value);
        }
    }
    if transfer_encoding.is_some_and(|te| te.eq_ignore_ascii_case("chunked")) {
        return Ok(Framing::Chunked);
    }
    match content_length {
        Some(v) => match v.trim().parse() {
            Ok(n) if n < MAX_DECLARED => Ok(Framing::Length(n)),
            _ => Err(H1Error::BadContentLength(v.to_string())),
        },
        None => Ok(Framing::None),
    }
}

/// Frames `body` as one chunk plus the terminating zero chunk — the shape
/// a server streaming a single buffer produces.
fn write_chunked(out: &mut Vec<u8>, body: &[u8]) {
    if !body.is_empty() {
        out.extend_from_slice(format!("{:x}\r\n", body.len()).as_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
}

/// Writes the head — `start_line`'s parts back to back, the header
/// fields, a `content-length` when the headers frame nothing themselves
/// and there is a body (or `always_length`), the blank line — and frames
/// the body.
fn encode_message<N: AsRef<str>, V: AsRef<str>>(
    start_line: &[&str],
    headers: &[(N, V)],
    body: Vec<u8>,
    always_length: bool,
) -> Encoded {
    let fields = || headers.iter().map(|(name, value)| (name.as_ref(), value.as_ref()));
    let framing = framing_of(fields()).unwrap_or(Framing::None);
    let add_length = framing == Framing::None && (always_length || !body.is_empty());
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
    let body = match framing {
        Framing::Chunked => {
            let mut framed = Vec::with_capacity(body.len() + 16);
            write_chunked(&mut framed, &body);
            framed
        }
        _ => body,
    };
    Encoded { head, body }
}

/// Serialises a request from its parts. A `content-length` field is
/// appended when the body is non-empty and the headers carry no framing of
/// their own; `transfer-encoding: chunked` in the headers selects chunked
/// framing.
pub fn encode_request<N: AsRef<str>, V: AsRef<str>>(
    method: &str,
    target: &str,
    headers: &[(N, V)],
    body: Vec<u8>,
) -> Encoded {
    encode_message(&[method, " ", target, " HTTP/1.1"], headers, body, false)
}

/// Serialises a response from its parts; framing rules as for
/// [`encode_request`], except a `content-length` is always added when
/// absent (a response without framing would only end at connection close).
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
    /// The (unframed) body.
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

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Serialises the request: [`encode_request`] of its fields.
    pub fn encode(&self) -> Encoded {
        encode_request(&self.method, &self.target, &self.headers, self.body.clone())
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// Reason phrase, e.g. `OK`.
    pub reason: String,
    /// Header fields in order, names with their original casing.
    pub headers: Vec<(String, String)>,
    /// The (unframed) body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given status line and headers.
    pub fn new(status: u16, reason: &str, headers: Vec<(String, String)>) -> Response {
        Response { status, reason: reason.to_string(), headers, body: Vec::new() }
    }

    /// Sets the body (builder style).
    pub fn with_body(mut self, body: Vec<u8>) -> Response {
        self.body = body;
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Serialises the response: [`encode_response`] of its fields.
    pub fn encode(&self) -> Encoded {
        encode_response(self.status, &self.reason, &self.headers, self.body.clone())
    }
}

// ---------------------------------------------------------------------
// Incremental parsing
// ---------------------------------------------------------------------

/// `METHOD target HTTP/1.x` → `(method, target)`.
fn request_line(line: &str) -> Result<(&str, &str), H1Error> {
    let mut parts = line.splitn(3, ' ');
    match (parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(target), Some(v)) if v.starts_with("HTTP/1.") => Ok((method, target)),
        _ => Err(H1Error::BadStartLine(line.to_string())),
    }
}

/// `HTTP/1.x code reason` → `(code, reason)`; the reason may be missing.
fn status_line(line: &str) -> Result<(u16, &str), H1Error> {
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    let status = parts.next().and_then(|s| s.parse::<u16>().ok());
    match (version.starts_with("HTTP/1."), status) {
        (true, Some(status)) => Ok((status, parts.next().unwrap_or_default())),
        _ => Err(H1Error::BadStartLine(line.to_string())),
    }
}

/// The header-field lines of a head, between the start line and the blank
/// line, as they lie in the parser's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fields<'a>(&'a str);

impl<'a> Fields<'a> {
    /// Each line split at its first colon, both sides trimmed; a line
    /// without one is the error.
    fn lines(self) -> impl Iterator<Item = Result<(&'a str, &'a str), H1Error>> {
        self.0.split("\r\n").filter(|line| !line.is_empty()).map(|line| {
            let (name, value) =
                line.split_once(':').ok_or_else(|| H1Error::BadHeader(line.to_string()))?;
            Ok((name.trim(), value.trim()))
        })
    }

    /// The `(name, value)` pairs in order, names with their original
    /// casing.
    pub fn iter(self) -> impl Iterator<Item = (&'a str, &'a str)> {
        // A parser hands out only lines it has checked.
        self.lines().flatten()
    }

    fn to_owned(self) -> Vec<(String, String)> {
        self.iter().map(|(name, value)| (name.to_string(), value.to_string())).collect()
    }
}

/// A head (without its blank line) cut into its start line and its field
/// lines.
fn cut_head(head: &str) -> (&str, Fields<'_>) {
    let (start_line, fields) = head.split_once("\r\n").unwrap_or((head, ""));
    (start_line, Fields(fields))
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
    /// The (unframed) body.
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
    /// The (unframed) body.
    pub body: &'a [u8],
}

/// Where the parser is in the message at the front of its buffer. Offsets
/// count from the first pending byte; nothing of a message is consumed
/// before all of it has arrived.
#[derive(Debug, Clone, Copy)]
enum ParseState {
    /// No complete head yet: `\r\n\r\n` does not start in the first
    /// `scanned` bytes.
    Head { scanned: usize },
    /// A valid head of `head` bytes, then a `content-length` body of `len`.
    Length { head: usize, len: usize },
    /// Chunked: the next chunk-size line starts at `at`.
    ChunkSize { head: usize, at: usize },
    /// Chunked: a chunk of `len` bytes and its CRLF start at `at`.
    ChunkData { head: usize, at: usize, len: usize },
    /// Chunked: the blank line after the zero chunk starts at `at`.
    LastLine { head: usize, at: usize },
}

/// A finished message: `(start line, field lines, body)`.
type Parsed<'a> = (&'a str, Fields<'a>, &'a [u8]);

/// Streaming parser core shared by [`RequestParser`] and
/// [`ResponseParser`].
#[derive(Debug)]
struct Parser {
    /// Whether start lines are request lines (else status lines).
    requests: bool,
    buf: StreamBuf,
    state: ParseState,
    /// The de-chunked body of the chunked message in progress.
    chunks: Vec<u8>,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl Parser {
    fn new(requests: bool) -> Parser {
        Parser {
            requests,
            buf: StreamBuf::default(),
            state: ParseState::Head { scanned: 0 },
            chunks: Vec::new(),
        }
    }

    /// Validates a complete head (without its blank line) where it lies
    /// and decides how its body is framed.
    fn scan_head(&self, head: &[u8]) -> Result<Framing, H1Error> {
        let head = std::str::from_utf8(head).map_err(|_| H1Error::BadEncoding)?;
        let (start_line, fields) = cut_head(head);
        if self.requests {
            request_line(start_line)?;
        } else {
            status_line(start_line)?;
        }
        // One pass: the framing decision over the lines up to the first
        // that is not a field, which is the error if there is one.
        let mut bad = None;
        let framing =
            framing_of(fields.lines().map_while(|line| line.map_err(|e| bad = Some(e)).ok()));
        match bad {
            Some(bad) => Err(bad),
            None => framing,
        }
    }

    /// Advances the state machine over the pending bytes. A finished
    /// message is `(head length, whole length, whether chunked)`, and the
    /// state is back at `Head` for whatever follows it.
    fn poll(&mut self) -> Result<Option<(usize, usize, bool)>, H1Error> {
        let next_head = ParseState::Head { scanned: 0 };
        loop {
            let pending = self.buf.pending();
            match self.state {
                ParseState::Head { scanned } => {
                    let Some(at) = find(&pending[scanned..], b"\r\n\r\n") else {
                        self.state = ParseState::Head { scanned: pending.len().saturating_sub(3) };
                        return Ok(None);
                    };
                    let head = scanned + at + 4;
                    self.state = next_head;
                    match self.scan_head(&pending[..head - 4]) {
                        Ok(Framing::None) => return Ok(Some((head, head, false))),
                        Ok(Framing::Length(len)) => self.state = ParseState::Length { head, len },
                        Ok(Framing::Chunked) => {
                            self.chunks.clear();
                            self.state = ParseState::ChunkSize { head, at: head };
                        }
                        Err(bad) => {
                            // Past the bad head, the stream may go on.
                            self.buf.consume(head);
                            return Err(bad);
                        }
                    }
                }
                ParseState::Length { head, len } => {
                    // `len` is below MAX_DECLARED, so the sum cannot
                    // overflow.
                    if pending.len() < head + len {
                        return Ok(None);
                    }
                    self.state = next_head;
                    return Ok(Some((head, head + len, false)));
                }
                ParseState::ChunkSize { head, at } => {
                    let Some(end) = find(&pending[at..], b"\r\n") else { return Ok(None) };
                    let line = String::from_utf8_lossy(&pending[at..at + end]);
                    let at = at + end + 2;
                    self.state = match usize::from_str_radix(line.trim(), 16) {
                        Ok(0) => ParseState::LastLine { head, at },
                        Ok(len) if len < MAX_DECLARED => ParseState::ChunkData { head, at, len },
                        _ => {
                            // Past the bad line, the stream may go on.
                            let line = line.into_owned();
                            self.buf.consume(at);
                            self.state = next_head;
                            return Err(H1Error::BadChunkSize(line));
                        }
                    };
                }
                ParseState::ChunkData { head, at, len } => {
                    // Chunk payload plus its trailing CRLF; `len` is
                    // below MAX_DECLARED, so the sum cannot overflow.
                    if pending.len() < at + len + 2 {
                        return Ok(None);
                    }
                    self.chunks.extend_from_slice(&pending[at..at + len]);
                    self.state = ParseState::ChunkSize { head, at: at + len + 2 };
                }
                ParseState::LastLine { head, at } => {
                    if pending.len() < at + 2 {
                        return Ok(None);
                    }
                    self.state = next_head;
                    return Ok(Some((head, at + 2, true)));
                }
            }
        }
    }

    /// Pops the next complete message, if one has fully arrived, as a
    /// view of the parser's buffers.
    fn next_message(&mut self) -> Result<Option<Parsed<'_>>, H1Error> {
        let Some((head, whole, chunked)) = self.poll()? else { return Ok(None) };
        let message = self.buf.consume(whole);
        let text = std::str::from_utf8(&message[..head - 4])
            .expect("the head was validated when it arrived");
        let (start_line, fields) = cut_head(text);
        let body = if chunked { self.chunks.as_slice() } else { &message[head..] };
        Ok(Some((start_line, fields, body)))
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
        RequestParser { inner: Parser::new(true) }
    }

    /// Appends received stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.inner.buf.push(bytes);
    }

    /// Pops the next complete request, if one has fully arrived, as a
    /// view of the parser's buffer.
    pub fn next_ref(&mut self) -> Result<Option<RequestRef<'_>>, H1Error> {
        let Some((start_line, fields, body)) = self.inner.next_message()? else { return Ok(None) };
        let (method, target) =
            request_line(start_line).expect("the head was validated when it arrived");
        Ok(Some(RequestRef { method, target, fields, body }))
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
        ResponseParser { inner: Parser::new(false) }
    }

    /// Appends received stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.inner.buf.push(bytes);
    }

    /// Pops the next complete response, if one has fully arrived, as a
    /// view of the parser's buffer.
    pub fn next_ref(&mut self) -> Result<Option<ResponseRef<'_>>, H1Error> {
        let Some((start_line, fields, body)) = self.inner.next_message()? else { return Ok(None) };
        let (status, reason) =
            status_line(start_line).expect("the head was validated when it arrived");
        Ok(Some(ResponseRef { status, reason, fields, body }))
    }

    /// [`ResponseParser::next_ref`], the response copied out of the buffer.
    pub fn next_response(&mut self) -> Result<Option<Response>, H1Error> {
        Ok(self.next_ref()?.map(|r| Response {
            status: r.status,
            reason: r.reason.to_string(),
            headers: r.fields.to_owned(),
            body: r.body.to_vec(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let got = parser.next_request().unwrap().unwrap();
        assert_eq!(got.method, "POST");
        assert_eq!(got.target, "/dns-query");
        assert_eq!(got.body, req.body);
        assert_eq!(got.header("Content-Type"), Some("application/dns-message"));
        assert!(parser.next_request().unwrap().is_none());
    }

    #[test]
    fn header_lookup_ignores_case() {
        let wire = b"GET / HTTP/1.1\r\nHoSt: example.com\r\nCONTENT-LENGTH: 2\r\n\r\nhi";
        let mut parser = RequestParser::new();
        parser.push(wire);
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(req.header("host"), Some("example.com"));
        assert_eq!(req.body, b"hi");
        // Original casing is preserved in the parsed list.
        assert_eq!(req.headers[0].0, "HoSt");
    }

    #[test]
    fn chunked_response_round_trips() {
        let resp = Response::new(
            200,
            "OK",
            vec![("Transfer-Encoding".to_string(), "chunked".to_string())],
        )
        .with_body(vec![9u8; 300]);
        let encoded = resp.encode();
        // 300 = 0x12c: size line + payload + CRLF + zero chunk.
        assert_eq!(encoded.body.len(), 5 + 300 + 2 + 5);
        let mut parser = ResponseParser::new();
        for chunk in encoded.concat().chunks(11) {
            parser.push(chunk);
        }
        let got = parser.next_response().unwrap().unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.body, vec![9u8; 300]);
    }

    #[test]
    fn pipelined_messages_parse_in_order() {
        let mut parser = ResponseParser::new();
        let a = Response::new(200, "OK", Vec::new()).with_body(b"first".to_vec());
        let b = Response::new(404, "Not Found", Vec::new()).with_body(b"second!".to_vec());
        let mut wire = a.encode().concat();
        wire.extend(b.encode().concat());
        parser.push(&wire);
        assert_eq!(parser.next_response().unwrap().unwrap().body, b"first");
        let second = parser.next_response().unwrap().unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(second.reason, "Not Found");
        assert_eq!(second.body, b"second!");
        assert!(parser.next_response().unwrap().is_none());
    }

    #[test]
    fn empty_body_response_always_carries_content_length() {
        let wire = Response::new(204, "No Content", Vec::new()).encode();
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
        assert!(matches!(parser.next_response(), Err(H1Error::BadContentLength(_))));
        let mut parser = ResponseParser::new();
        parser.push(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n");
        assert!(matches!(parser.next_response(), Err(H1Error::BadChunkSize(_))));
        // From the 1 MiB bound up to usize::MAX, where `left + 2` would overflow.
        for size in ["ffffffffffffffff", "fffffffffffffffe", "100000"] {
            let chunked = format!("transfer-encoding: chunked\r\n\r\n{size}\r\nabc");
            let mut parser = ResponseParser::new();
            parser.push(format!("HTTP/1.1 200 OK\r\n{chunked}").as_bytes());
            assert!(matches!(parser.next_response(), Err(H1Error::BadChunkSize(_))), "{size}");
            let mut parser = RequestParser::new();
            parser.push(format!("POST /dns-query HTTP/1.1\r\n{chunked}").as_bytes());
            assert!(matches!(parser.next_request(), Err(H1Error::BadChunkSize(_))), "{size}");
        }
        let mut parser = ResponseParser::new();
        parser.push(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nfffff\r\nabc");
        assert_eq!(parser.next_response(), Ok(None), "just under the bound still buffers");
        // The same bound on the other declared length: up to usize::MAX,
        // where the head's length plus it would overflow.
        for length in ["18446744073709551615", "1048576"] {
            let declared = format!("content-length: {length}\r\n\r\nabc");
            let mut parser = ResponseParser::new();
            parser.push(format!("HTTP/1.1 200 OK\r\n{declared}").as_bytes());
            let got = parser.next_response();
            assert!(matches!(got, Err(H1Error::BadContentLength(_))), "{length}: {got:?}");
            let mut parser = RequestParser::new();
            parser.push(format!("POST /dns-query HTTP/1.1\r\n{declared}").as_bytes());
            let got = parser.next_request();
            assert!(matches!(got, Err(H1Error::BadContentLength(_))), "{length}: {got:?}");
        }
        let mut parser = ResponseParser::new();
        parser.push(b"HTTP/1.1 200 OK\r\ncontent-length: 1048575\r\n\r\nabc");
        assert_eq!(parser.next_response(), Ok(None), "just under the bound still buffers");
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
}
