//! # dohmark
//!
//! A protocol-faithful reproduction of *"An Empirical Study of the Cost of
//! DNS-over-HTTPS"* (Boettger et al., ACM IMC 2019).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`dns`] — the DNS wireformat codec, and the JSON text codec the
//!   reports are written with.
//! * [`netsim`] — deterministic discrete-event network simulator with
//!   simulated UDP and TCP and per-layer cost accounting.
//! * [`tls`] — TLS 1.3 handshake and record-layer byte model: the three
//!   handshake flights (SNI, ALPN, PSK resumption) and record
//!   framing/deframing.
//! * [`http`] — byte-accurate HTTP codecs: HPACK (static + dynamic table
//!   with eviction, Huffman coding), HTTP/2 framing and HTTP/1.1
//!   request/response text.
//! * [`doh`] — simulated DNS transports behind one unified API: UDP Do53,
//!   DoT, and DoH over HTTP/1.1 and HTTP/2, each resolution attributed in
//!   the cost meter. A [`doh::Driver`] serves and connects any
//!   [`doh::TransportConfig`] (kind × reuse × TLS resumption), so
//!   experiments iterate the whole transport matrix.
//! * [`survey`] — an empty placeholder crate (no provider survey); its
//!   deletion waits for ROADMAP item 3b.
//! * [`workload`] — seeded Poisson query arrivals, Zipf name universes,
//!   multi-client fleet schedules, and the Alexa-like site model
//!   (`SiteModel`) whose pages feed the page-load engine.
//! * [`pageload`] — the browser page-load engine, Figures 1, 2 and 6:
//!   pages as dependency trees of resources over several domains, each
//!   fetch gated on resolving its domain through any client a
//!   [`doh::Driver`] connects, page-load time as the simulated makespan
//!   from `pageload::load_page`.
//!
//! ## Quickstart
//!
//! Encode a real DNS query and send it over simulated TCP, then read the
//! per-layer cost the way the paper's figures do:
//!
//! ```
//! use dohmark::dns::{Message, Name, RecordType};
//! use dohmark::netsim::{LayerTag, LinkConfig, Sim, Wake};
//!
//! let query = Message::query(0x1234, &Name::parse("example.com.").unwrap(), RecordType::A);
//! let wire = query.encode();
//!
//! let mut sim = Sim::new(7);
//! let client = sim.add_host("client");
//! let resolver = sim.add_host("resolver");
//! sim.add_link(client, resolver, LinkConfig::localhost());
//! sim.tcp_listen(resolver, 853);
//! let conn = sim.tcp_connect(client, (resolver, 853));
//! while let Some(wake) = sim.next_wake() {
//!     if let Wake::TcpConnected { .. } = wake {
//!         sim.tcp_send(conn, LayerTag::DnsPayload, &wire);
//!         break;
//!     }
//! }
//! sim.drain();
//!
//! let cost = sim.meter.total();
//! assert_eq!(cost.layers.get(LayerTag::DnsPayload), wire.len() as u64);
//! // Handshake + ACKs: the transport overhead the paper quantifies.
//! assert!(cost.layers.get(LayerTag::L4Header) > cost.layers.get(LayerTag::DnsPayload));
//! ```

pub use dohmark_dns_wire as dns;
pub use dohmark_doh as doh;
pub use dohmark_httpsim as http;
pub use dohmark_netsim as netsim;
pub use dohmark_pageload as pageload;
pub use dohmark_survey as survey;
pub use dohmark_tls_model as tls;
pub use dohmark_workload as workload;
