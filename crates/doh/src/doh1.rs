//! DNS over HTTPS on HTTP/1.1 (RFC 8484 over RFC 9112).
//!
//! Wire shape per query, inside TLS records over simulated TCP:
//!
//! * Request: `POST /dns-query HTTP/1.1` with `host`, `accept`,
//!   `content-type: application/dns-message` and `content-length` fields —
//!   the full header text every HTTP/1.1 request repeats, which is exactly
//!   why the paper finds h1 headers cost more than HPACK-compressed h2
//!   headers on persistent connections. The body is the raw DNS query.
//! * Response: `HTTP/1.1 200 OK` with `content-type`, `server` and
//!   `content-length`, body the raw DNS response.
//!
//! Header text is tagged [`LayerTag::HttpHeader`], bodies
//! [`LayerTag::HttpBody`], TLS record framing `Tls` — the paper's "Hdr" /
//! "Body" / "TLS" split.
//!
//! Nothing here owns header text: a message's header list is a stack
//! array of `(&str, &str)` handed to [`h1::encode_request`] /
//! [`h1::encode_response`], which move the encoded DNS message into the
//! body segment, and an arriving message is read — status, body — through
//! the parser's borrowed view, straight out of its receive buffer.

use crate::stream::{Framing, Segments, StreamClient, StreamServer};
use dohmark_dns_wire::Message;
use dohmark_httpsim::h1::{self, Encoded, RequestParser, ResponseParser};
use dohmark_netsim::{LayerTag, Side};
use std::collections::VecDeque;

/// The RFC 8484 media type.
pub(crate) const DNS_MESSAGE: &str = "application/dns-message";
/// The conventional DoH endpoint path.
pub(crate) const DOH_PATH: &str = "/dns-query";

/// Header text tagged `HttpHeader`, the body `HttpBody`.
fn tagged(encoded: Encoded) -> Segments {
    vec![(LayerTag::HttpHeader, encoded.head), (LayerTag::HttpBody, encoded.body)]
}

/// The DoH/1.1 framing: one `POST /dns-query` request and one `200 OK`
/// response per query, answered in request order.
#[derive(Debug)]
pub(crate) struct Http1;

/// The HTTP/1.1 parser of one end: a client reads responses, a server
/// requests.
#[derive(Debug)]
enum H1Parser {
    Responses(ResponseParser),
    Requests(RequestParser),
}

/// Per-connection DoH/1.1 state.
#[derive(Debug)]
pub(crate) struct H1Conn {
    parser: H1Parser,
    /// The server's answers in request order, `None` while still pending
    /// — HTTP/1.1 has no stream multiplexing, so responses must go out
    /// in request order even when a later request's answer (a cache hit)
    /// is ready before an earlier one's (parked on an upstream fetch):
    /// real h1 head-of-line blocking.
    pipeline: VecDeque<Option<Message>>,
    /// Requests already answered: the request-order position of the
    /// pipeline's front.
    answered: u64,
}

impl Framing for Http1 {
    type Conn = H1Conn;
    /// The request's position in the connection's request order.
    type Slot = u64;

    fn conn(side: Side) -> H1Conn {
        let parser = match side {
            Side::Client => H1Parser::Responses(ResponseParser::new()),
            Side::Server => H1Parser::Requests(RequestParser::new()),
        };
        H1Conn { parser, pipeline: VecDeque::new(), answered: 0 }
    }

    fn encode_query(_conn: &mut H1Conn, authority: &str, query: &Message) -> Segments {
        let headers = [("host", authority), ("accept", DNS_MESSAGE), ("content-type", DNS_MESSAGE)];
        tagged(h1::encode_request("POST", DOH_PATH, &headers, query.encode()))
    }

    fn encode_response(_conn: &mut H1Conn, _slot: u64, response: &Message) -> Segments {
        let headers = [("content-type", DNS_MESSAGE), ("server", "dohmark")];
        tagged(h1::encode_response(200, "OK", &headers, response.encode()))
    }

    fn decode(
        conn: &mut H1Conn,
        plaintext: &[u8],
        _control: &mut Vec<Segments>,
    ) -> (Vec<(u64, Message)>, usize) {
        let mut messages = Vec::new();
        let mut completed = 0;
        match &mut conn.parser {
            H1Parser::Responses(parser) => {
                parser.push(plaintext);
                while let Ok(Some(response)) = parser.next_ref() {
                    completed += 1;
                    if response.status == 200 {
                        if let Ok(msg) = Message::decode(response.body) {
                            messages.push((0, msg));
                        }
                    }
                }
            }
            H1Parser::Requests(parser) => {
                parser.push(plaintext);
                while let Ok(Some(request)) = parser.next_ref() {
                    // Requests whose body is not a DNS message are dropped,
                    // like a resolver answering 400 we never retry on.
                    let Ok(query) = Message::decode(request.body) else { continue };
                    messages.push((conn.answered + conn.pipeline.len() as u64, query));
                    conn.pipeline.push_back(None);
                }
            }
        }
        (messages, completed)
    }

    /// Parks `response` at its pipeline position and releases the ready
    /// responses at the front, stopping at the first whose answer is
    /// still pending (h1 head-of-line blocking).
    fn release(conn: &mut H1Conn, slot: u64, response: Message) -> Vec<(u64, Message)> {
        conn.pipeline[(slot - conn.answered) as usize] = Some(response);
        let mut ready = Vec::new();
        while let Some(response) = conn.pipeline.front_mut().and_then(Option::take) {
            conn.pipeline.pop_front();
            ready.push((conn.answered, response));
            conn.answered += 1;
        }
        ready
    }
}

/// A DoH client speaking HTTP/1.1 to one resolver.
pub(crate) type DohH1Client = StreamClient<Http1>;

/// A DoH/1.1 server answering from a pluggable
/// [`ServerBackend`](crate::ServerBackend) — authoritative zone data or a
/// shared caching recursive resolver.
pub(crate) type DohH1Server = StreamServer<Http1>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::pump;
    use crate::{Resolver, ReusePolicy, ServerBackend};
    use dohmark_dns_wire::{Name, RecordType};
    use dohmark_netsim::{LinkConfig, Sim};
    use dohmark_tls_model::{handshake_bytes, TlsConfig, ALPN_HTTP11};

    fn h1_tls() -> TlsConfig {
        TlsConfig::for_server("dns.example.net").alpn(ALPN_HTTP11)
    }

    fn setup(seed: u64, policy: ReusePolicy) -> (Sim, DohH1Client, DohH1Server) {
        let mut sim = Sim::new(seed);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, LinkConfig::localhost());
        let server = DohH1Server::bind(&mut sim, resolver, 443, h1_tls(), ServerBackend::echo());
        let client = DohH1Client::new(stub, (resolver, 443), h1_tls(), policy);
        (sim, client, server)
    }

    #[test]
    fn cold_resolution_pays_handshake_headers_and_body() {
        let (mut sim, mut client, mut server) = setup(1, ReusePolicy::Fresh);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        let response = pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
        assert_eq!(response.answers[0].name, name);
        sim.drain();
        let cost = sim.meter.cost(1);
        let hs = handshake_bytes(&h1_tls()) as u64;
        // Handshake + one record each way.
        assert_eq!(cost.layers.get(LayerTag::Tls), hs + 2 * 21);
        // Bodies are exactly the DNS messages.
        let query_len = Message::query(1, &name, RecordType::A).encode().len() as u64;
        let resp_len = response.encode().len() as u64;
        assert_eq!(cost.layers.get(LayerTag::HttpBody), query_len + resp_len);
        // The request + response header text is a three-digit number of
        // bytes — the h1 header tax the paper measures.
        assert!(
            cost.layers.get(LayerTag::HttpHeader) > 150,
            "header bytes {}",
            cost.layers.get(LayerTag::HttpHeader)
        );
        assert_eq!(cost.layers.get(LayerTag::HttpMgmt), 0, "h1 has no management frames");
        assert!(!client.is_connected(), "cold connection must close");
    }

    #[test]
    fn persistent_connection_repeats_header_text_every_query() {
        let (mut sim, mut client, mut server) = setup(2, ReusePolicy::Persistent);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        for _ in 0..3 {
            pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
        }
        assert!(client.is_connected());
        sim.drain();
        let first = sim.meter.cost(1).layers.get(LayerTag::HttpHeader);
        for id in 2..=3u32 {
            // No compression on h1: identical header bytes per query.
            assert_eq!(sim.meter.cost(id).layers.get(LayerTag::HttpHeader), first, "id {id}");
            assert_eq!(sim.meter.cost(id).layers.get(LayerTag::Tls), 2 * 21, "id {id}");
        }
        assert_eq!(sim.meter.cost(0).layers.get(LayerTag::Tls), handshake_bytes(&h1_tls()) as u64);
    }

    #[test]
    fn close_then_next_query_reconnects() {
        let (mut sim, mut client, mut server) = setup(3, ReusePolicy::Persistent);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
        client.close(&mut sim);
        pump(&mut sim, &mut client, &mut server, None);
        assert!(!client.is_connected());
        assert_eq!(server.open_connections(), 0);
        let response = pump(&mut sim, &mut client, &mut server, Some(&name));
        assert!(response.is_some());
    }

    #[test]
    fn identical_seeds_reproduce_identical_h1_costs() {
        let run = |seed: u64| {
            let (mut sim, mut client, mut server) = setup(seed, ReusePolicy::Persistent);
            let name = Name::parse("abcdefgh.dohmark.test").unwrap();
            for _ in 0..3 {
                pump(&mut sim, &mut client, &mut server, Some(&name)).unwrap();
            }
            sim.drain();
            (sim.meter.total(), sim.now())
        };
        assert_eq!(run(7), run(7));
    }
}
