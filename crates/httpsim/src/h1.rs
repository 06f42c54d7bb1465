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

use std::fmt;

/// A parse failure; a real server would answer 400 and close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H1Error {
    /// The start line was not `METHOD target HTTP/1.1` / `HTTP/1.1 code …`.
    BadStartLine(String),
    /// A header line had no colon.
    BadHeader(String),
    /// `content-length` was present but not a number.
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

fn framing_of(headers: &[(String, String)]) -> Result<Framing, H1Error> {
    if let Some(te) = header(headers, "transfer-encoding") {
        if te.eq_ignore_ascii_case("chunked") {
            return Ok(Framing::Chunked);
        }
    }
    match header(headers, "content-length") {
        Some(v) => {
            let n = v.trim().parse().map_err(|_| H1Error::BadContentLength(v.to_string()))?;
            Ok(Framing::Length(n))
        }
        None => Ok(Framing::None),
    }
}

fn write_head(
    out: &mut Vec<u8>,
    start_line: &str,
    headers: &[(String, String)],
    body_len: usize,
    add_length: bool,
) {
    out.extend_from_slice(start_line.as_bytes());
    out.extend_from_slice(b"\r\n");
    for (name, value) in headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if add_length {
        out.extend_from_slice(format!("content-length: {body_len}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
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

fn encode_message(
    start_line: &str,
    headers: &[(String, String)],
    body: &[u8],
    always_length: bool,
) -> Encoded {
    let framing = framing_of(headers).unwrap_or(Framing::None);
    let add_length = framing == Framing::None && (always_length || !body.is_empty());
    let mut head = Vec::new();
    write_head(&mut head, start_line, headers, body.len(), add_length);
    let mut framed = Vec::new();
    match framing {
        Framing::Chunked => write_chunked(&mut framed, body),
        _ => framed.extend_from_slice(body),
    }
    Encoded { head, body: framed }
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

    /// Serialises the request. A `content-length` field is appended when
    /// the body is non-empty and the headers carry no framing of their
    /// own; `transfer-encoding: chunked` in the headers selects chunked
    /// framing.
    pub fn encode(&self) -> Encoded {
        let start = format!("{} {} HTTP/1.1", self.method, self.target);
        encode_message(&start, &self.headers, &self.body, false)
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

    /// Serialises the response; framing rules as for [`Request::encode`],
    /// except a `content-length` is always added when absent (a response
    /// without framing would only end at connection close).
    pub fn encode(&self) -> Encoded {
        let start = format!("HTTP/1.1 {} {}", self.status, self.reason);
        encode_message(&start, &self.headers, &self.body, true)
    }
}

// ---------------------------------------------------------------------
// Incremental parsing
// ---------------------------------------------------------------------

/// Parsed start line: either a request or a response.
#[derive(Debug)]
enum StartLine {
    Request { method: String, target: String },
    Response { status: u16, reason: String },
}

#[derive(Debug)]
enum ParseState {
    Head,
    Body {
        start: StartLine,
        headers: Vec<(String, String)>,
        framing: Framing,
        got: Vec<u8>,
    },
    /// Mid-chunk: `left` payload bytes (plus CRLF) still expected.
    Chunk {
        start: StartLine,
        headers: Vec<(String, String)>,
        got: Vec<u8>,
        left: usize,
    },
}

/// Sanity bound on a declared chunk size, the one `h2::FrameDecoder` puts
/// on its length field: 1 MiB is far above any DoH message, and a size at
/// or above it is rejected instead of buffering for bytes that never come
/// (or, near `usize::MAX`, overflowing the `+ 2` for the chunk's CRLF).
const MAX_CHUNK: usize = 1 << 20;

/// A finished message: start line, headers, unframed body.
type Parsed = (StartLine, Vec<(String, String)>, Vec<u8>);

/// Streaming parser core shared by [`RequestParser`] and
/// [`ResponseParser`].
#[derive(Debug)]
struct Parser {
    buf: Vec<u8>,
    state: ParseState,
}

impl Default for Parser {
    fn default() -> Parser {
        Parser { buf: Vec::new(), state: ParseState::Head }
    }
}

impl Parser {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Finds `\r\n\r\n`, returning the head length including it.
    fn head_end(&self) -> Option<usize> {
        self.buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
    }

    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.windows(2).position(|w| w == b"\r\n")?;
        let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
        self.buf.drain(..end + 2);
        Some(line)
    }

    fn parse_head(
        head: &str,
        request: bool,
    ) -> Result<(StartLine, Vec<(String, String)>), H1Error> {
        let mut lines = head.split("\r\n");
        let start_line = lines.next().unwrap_or_default();
        let start = if request {
            let mut parts = start_line.splitn(3, ' ');
            let method = parts.next().unwrap_or_default();
            let target = parts.next();
            let version = parts.next();
            match (target, version) {
                (Some(target), Some(v)) if v.starts_with("HTTP/1.") => {
                    StartLine::Request { method: method.to_string(), target: target.to_string() }
                }
                _ => return Err(H1Error::BadStartLine(start_line.to_string())),
            }
        } else {
            let mut parts = start_line.splitn(3, ' ');
            let version = parts.next().unwrap_or_default();
            let status = parts.next().and_then(|s| s.parse::<u16>().ok());
            match (version.starts_with("HTTP/1."), status) {
                (true, Some(status)) => StartLine::Response {
                    status,
                    reason: parts.next().unwrap_or_default().to_string(),
                },
                _ => return Err(H1Error::BadStartLine(start_line.to_string())),
            }
        };
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) =
                line.split_once(':').ok_or_else(|| H1Error::BadHeader(line.to_string()))?;
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        Ok((start, headers))
    }

    /// Advances the state machine; returns a finished message's parts.
    fn next_message(&mut self, request: bool) -> Result<Option<Parsed>, H1Error> {
        loop {
            match std::mem::replace(&mut self.state, ParseState::Head) {
                ParseState::Head => {
                    let Some(end) = self.head_end() else { return Ok(None) };
                    let head: Vec<u8> = self.buf.drain(..end).collect();
                    let head =
                        std::str::from_utf8(&head[..end - 4]).map_err(|_| H1Error::BadEncoding)?;
                    let (start, headers) = Parser::parse_head(head, request)?;
                    let framing = framing_of(&headers)?;
                    self.state = ParseState::Body { start, headers, framing, got: Vec::new() };
                }
                ParseState::Body { start, headers, framing, mut got } => match framing {
                    Framing::None => return Ok(Some((start, headers, got))),
                    Framing::Length(n) => {
                        let need = n - got.len();
                        let take = need.min(self.buf.len());
                        got.extend(self.buf.drain(..take));
                        if got.len() == n {
                            return Ok(Some((start, headers, got)));
                        }
                        self.state = ParseState::Body { start, headers, framing, got };
                        return Ok(None);
                    }
                    Framing::Chunked => {
                        let Some(line) = self.take_line() else {
                            self.state = ParseState::Body { start, headers, framing, got };
                            return Ok(None);
                        };
                        let size = match usize::from_str_radix(line.trim(), 16) {
                            Ok(size) if size < MAX_CHUNK => size,
                            _ => return Err(H1Error::BadChunkSize(line)),
                        };
                        if size == 0 {
                            // Consume the trailing blank line if present.
                            if self.buf.starts_with(b"\r\n") {
                                self.buf.drain(..2);
                                return Ok(Some((start, headers, got)));
                            }
                            self.state = ParseState::Chunk { start, headers, got, left: 0 };
                            return Ok(None);
                        }
                        self.state = ParseState::Chunk { start, headers, got, left: size };
                    }
                },
                ParseState::Chunk { start, headers, mut got, left } => {
                    if left == 0 {
                        // Awaiting the blank line after the zero chunk.
                        if self.buf.len() < 2 {
                            self.state = ParseState::Chunk { start, headers, got, left };
                            return Ok(None);
                        }
                        self.buf.drain(..2);
                        return Ok(Some((start, headers, got)));
                    }
                    // Chunk payload plus its trailing CRLF; `left` is
                    // below MAX_CHUNK, so the sum cannot overflow.
                    if self.buf.len() < left + 2 {
                        self.state = ParseState::Chunk { start, headers, got, left };
                        return Ok(None);
                    }
                    got.extend(self.buf.drain(..left));
                    self.buf.drain(..2);
                    self.state =
                        ParseState::Body { start, headers, framing: Framing::Chunked, got };
                }
            }
        }
    }
}

/// Incremental HTTP/1.1 request parser (server side).
#[derive(Debug, Default)]
pub struct RequestParser {
    inner: Parser,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends received stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.inner.push(bytes);
    }

    /// Pops the next complete request, if one has fully arrived.
    pub fn next_request(&mut self) -> Result<Option<Request>, H1Error> {
        match self.inner.next_message(true)? {
            Some((StartLine::Request { method, target }, headers, body)) => {
                Ok(Some(Request { method, target, headers, body }))
            }
            Some(_) => unreachable!("request parsing yields request start lines"),
            None => Ok(None),
        }
    }
}

/// Incremental HTTP/1.1 response parser (client side).
#[derive(Debug, Default)]
pub struct ResponseParser {
    inner: Parser,
}

impl ResponseParser {
    /// An empty parser.
    pub fn new() -> ResponseParser {
        ResponseParser::default()
    }

    /// Appends received stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.inner.push(bytes);
    }

    /// Pops the next complete response, if one has fully arrived.
    pub fn next_response(&mut self) -> Result<Option<Response>, H1Error> {
        match self.inner.next_message(false)? {
            Some((StartLine::Response { status, reason }, headers, body)) => {
                Ok(Some(Response { status, reason, headers, body }))
            }
            Some(_) => unreachable!("response parsing yields response start lines"),
            None => Ok(None),
        }
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
    }
}
