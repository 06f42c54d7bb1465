//! The transport configuration behind the paper's transport matrix: the
//! one way into a transport.
//!
//! A [`TransportConfig`] names one cell of the matrix — [`TransportKind`]
//! × [`ReusePolicy`] × TLS resumption — plus the link between stub and
//! resolver. Everything else is fixed: the resolver's name and its echo
//! answer are the same in every cell, each kind speaks on its well-known
//! port with its own ALPN offer, and Do53 always resends an unanswered
//! query on TCP's RTO schedule. The [`Driver`](crate::Driver) builds a
//! cell's server ([`Driver::serve`](crate::Driver::serve)) and clients
//! ([`Driver::connect`](crate::Driver::connect)) from its config; the
//! per-transport types behind them are private to this crate, so
//! experiment harnesses iterate over configs:
//!
//! ```
//! use dohmark_dns_wire::Name;
//! use dohmark_doh::{Driver, ServerBackend, TransportConfig};
//! use dohmark_netsim::Sim;
//!
//! for cfg in TransportConfig::matrix() {
//!     let mut sim = Sim::new(1);
//!     let stub = sim.add_host("stub");
//!     let resolver = sim.add_host("resolver");
//!     sim.add_link(stub, resolver, cfg.link);
//!     let mut driver = Driver::new();
//!     driver.serve(&mut sim, &cfg, resolver, ServerBackend::echo());
//!     let client = driver.connect(&mut sim, &cfg, stub, resolver);
//!     let name = Name::parse("example.com").unwrap();
//!     let response = driver.resolve(&mut sim, client, &name);
//!     assert!(response.is_ok(), "{} failed", cfg.label());
//! }
//! ```

use crate::do53::{Do53Client, Do53Server};
use crate::doh1::{DohH1Client, DohH1Server};
use crate::doh2::{DohH2Client, DohH2Server};
use crate::dot::{DotClient, DotServer};
use crate::resolver::ServerBackend;
use crate::{Endpoint, Resolver};
use dohmark_netsim::{HostId, LinkConfig, Sim};
use dohmark_tls_model::{TlsConfig, ALPN_DOT, ALPN_H2, ALPN_HTTP11};
use std::net::Ipv4Addr;

/// The four transports of the paper's cost matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Classic DNS over UDP (§3 baseline).
    Do53,
    /// DNS over TLS (RFC 7858).
    Dot,
    /// DNS over HTTPS on HTTP/1.1.
    DohH1,
    /// DNS over HTTPS on HTTP/2.
    DohH2,
}

impl TransportKind {
    /// All kinds, in the paper's cheap-to-expensive presentation order.
    pub const ALL: [TransportKind; 4] =
        [TransportKind::Do53, TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2];

    /// Short lowercase label, e.g. `doh-h2`.
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::Do53 => "do53",
            TransportKind::Dot => "dot",
            TransportKind::DohH1 => "doh-h1",
            TransportKind::DohH2 => "doh-h2",
        }
    }

    /// The well-known server port (53 / 853 / 443).
    pub(crate) fn port(self) -> u16 {
        match self {
            TransportKind::Do53 => 53,
            TransportKind::Dot => 853,
            TransportKind::DohH1 | TransportKind::DohH2 => 443,
        }
    }

    /// The ALPN protocol the client offers, if the transport runs on TLS.
    pub(crate) fn alpn(self) -> Option<&'static str> {
        match self {
            TransportKind::Do53 => None,
            TransportKind::Dot => Some(ALPN_DOT),
            TransportKind::DohH1 => Some(ALPN_HTTP11),
            TransportKind::DohH2 => Some(ALPN_H2),
        }
    }
}

/// Connection-reuse policy of a TLS-based client (DoT or DoH).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReusePolicy {
    /// Open a fresh connection per query and close it after the response —
    /// every resolution pays the whole TCP + TLS handshake (the paper's
    /// cold-connection case).
    Fresh,
    /// Keep one connection open and pipeline all queries over it — the
    /// handshake is paid once and amortised (the paper's persistent case).
    Persistent,
}

impl ReusePolicy {
    /// Short lowercase label (`fresh` / `persistent`) used in cell labels
    /// and result-table keys.
    pub fn label(self) -> &'static str {
        match self {
            ReusePolicy::Fresh => "fresh",
            ReusePolicy::Persistent => "persistent",
        }
    }
}

/// One cell of the transport matrix plus shared topology parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// Which transport to build.
    pub kind: TransportKind,
    /// Fresh connection per query vs. one persistent connection
    /// (ignored by Do53, where every query is its own datagram exchange).
    pub reuse: ReusePolicy,
    /// Resume a TLS session instead of a full handshake.
    pub resumption: bool,
    /// Link characteristics between stub and resolver.
    pub link: LinkConfig,
}

impl TransportConfig {
    /// The resolver's server name: the TLS SNI and the HTTP
    /// `host`/`:authority` value.
    pub(crate) const SNI: &'static str = "dns.example.net";
    /// The A record [`ServerBackend::echo`] answers every query with.
    pub(crate) const ANSWER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    /// The TTL of the answer [`ServerBackend::echo`] gives every query, in
    /// seconds.
    pub const TTL: u32 = 300;

    /// A matrix cell with the defaults the examples use: TLS 1.3, no
    /// resumption and the [`LinkConfig::clean_broadband`] link
    /// (14 ms/50 Mbit s⁻¹).
    pub fn new(kind: TransportKind, reuse: ReusePolicy) -> TransportConfig {
        TransportConfig { kind, reuse, resumption: false, link: LinkConfig::clean_broadband() }
    }

    /// Enables TLS session resumption (builder style).
    pub fn resumed(mut self) -> TransportConfig {
        self.resumption = true;
        self
    }

    /// Human-readable cell label, e.g. `doh-h2 persistent resumed`.
    pub fn label(&self) -> String {
        if self.kind == TransportKind::Do53 {
            return self.kind.label().to_string();
        }
        let resumed = if self.resumption { " resumed" } else { "" };
        format!("{} {}{}", self.kind.label(), self.reuse.label(), resumed)
    }

    /// The TLS configuration this cell implies (`None` for Do53): its
    /// kind's ALPN offer to [`Self::SNI`], resumed when the cell is.
    pub(crate) fn tls(&self) -> Option<TlsConfig> {
        let alpn = self.kind.alpn()?;
        Some(TlsConfig {
            resumption: self.resumption,
            ..TlsConfig::for_server(Self::SNI).alpn(alpn)
        })
    }

    /// The full matrix the `transport_shootout` example iterates: Do53,
    /// plus every TLS transport in {fresh, persistent} and, for the fresh
    /// cells, the TLS-resumption variant — ten cells.
    pub fn matrix() -> Vec<TransportConfig> {
        let mut cells = vec![TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh)];
        for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
            cells.push(TransportConfig::new(kind, ReusePolicy::Fresh));
            cells.push(TransportConfig::new(kind, ReusePolicy::Fresh).resumed());
            cells.push(TransportConfig::new(kind, ReusePolicy::Persistent));
        }
        cells
    }

    /// This cell's server on `host`, at the transport's well-known port,
    /// answering from `backend`. The handles it binds take the owner id
    /// current in `sim`.
    pub(crate) fn server(
        &self,
        sim: &mut Sim,
        host: HostId,
        backend: ServerBackend,
    ) -> Box<dyn Endpoint> {
        let port = self.kind.port();
        match self.kind {
            TransportKind::Do53 => Box::new(Do53Server::bind(sim, host, port, backend)),
            TransportKind::Dot => {
                let tls = self.tls().expect("dot uses tls");
                Box::new(DotServer::bind(sim, host, port, tls, backend))
            }
            TransportKind::DohH1 => {
                let tls = self.tls().expect("doh uses tls");
                Box::new(DohH1Server::bind(sim, host, port, tls, backend))
            }
            TransportKind::DohH2 => {
                let tls = self.tls().expect("doh uses tls");
                Box::new(DohH2Server::bind(sim, host, port, tls, backend))
            }
        }
    }

    /// This cell's client on `stub`, querying the server on `resolver` at
    /// the transport's well-known port. Clients bind their handles lazily,
    /// at the first query.
    pub(crate) fn client(&self, stub: HostId, resolver: HostId) -> Box<dyn Resolver> {
        let server_addr = (resolver, self.kind.port());
        match self.kind {
            TransportKind::Do53 => Box::new(Do53Client::new(stub, server_addr)),
            TransportKind::Dot => {
                let tls = self.tls().expect("dot uses tls");
                Box::new(DotClient::new(stub, server_addr, tls, self.reuse))
            }
            TransportKind::DohH1 => {
                let tls = self.tls().expect("doh uses tls");
                Box::new(DohH1Client::new(stub, server_addr, tls, self.reuse))
            }
            TransportKind::DohH2 => {
                let tls = self.tls().expect("doh uses tls");
                Box::new(DohH2Client::new(stub, server_addr, tls, self.reuse))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohmark_dns_wire::Name;
    use dohmark_netsim::{LayerTag, SimDuration};

    #[test]
    fn matrix_covers_every_kind_and_reuse_mode() {
        let cells = TransportConfig::matrix();
        assert_eq!(cells.len(), 10);
        for kind in TransportKind::ALL {
            assert!(cells.iter().any(|c| c.kind == kind), "{kind:?} missing");
        }
        for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
            for reuse in [ReusePolicy::Fresh, ReusePolicy::Persistent] {
                assert!(
                    cells.iter().any(|c| c.kind == kind && c.reuse == reuse),
                    "{kind:?}/{reuse:?} missing"
                );
            }
        }
        // Labels are unique (they key result tables).
        let mut labels: Vec<String> = cells.iter().map(TransportConfig::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len());
    }

    #[test]
    fn every_matrix_cell_resolves_end_to_end() {
        for cfg in TransportConfig::matrix() {
            let mut sim = Sim::new(5);
            let stub = sim.add_host("stub");
            let resolver = sim.add_host("resolver");
            sim.add_link(stub, resolver, cfg.link);
            let mut driver = crate::Driver::new();
            driver.serve(&mut sim, &cfg, resolver, ServerBackend::echo());
            let client = driver.connect(&mut sim, &cfg, stub, resolver);
            let name = Name::parse("abcdefgh.dohmark.test").unwrap();
            for id in 1..=2u16 {
                let response = driver.resolve(&mut sim, client, &name);
                assert!(response.is_ok(), "{} id {id} failed", cfg.label());
            }
            driver.close(&mut sim, client);
            driver.run_until_quiescent(&mut sim);
        }
    }

    /// On a lossless, unjittered, unserialised link a resolution costs
    /// whole round trips: one for Do53 and for a query on an established
    /// persistent connection; three for every query that opens one, full
    /// or resumed (TCP handshake, then TLS 1.3's ClientHello ↔ server
    /// flight, then the client's Finished with the query ↔ the answer).
    #[test]
    fn every_matrix_cell_resolves_in_whole_round_trips_on_a_clean_link() {
        for rtt in [SimDuration::from_millis(14), SimDuration::from_millis(100)] {
            for cell in TransportConfig::matrix() {
                let cfg = TransportConfig { link: LinkConfig::with_rtt(rtt), ..cell };
                let mut sim = Sim::new(3);
                let stub = sim.add_host("stub");
                let resolver = sim.add_host("resolver");
                sim.add_link(stub, resolver, cfg.link);
                let mut driver = crate::Driver::new();
                driver.serve(&mut sim, &cfg, resolver, ServerBackend::echo());
                let client = driver.connect(&mut sim, &cfg, stub, resolver);
                let name = Name::parse("abcdefgh.dohmark.test").unwrap();
                for query in 1..=3u64 {
                    driver.run_until_quiescent(&mut sim);
                    let start = sim.now();
                    driver.resolve(&mut sim, client, &name).unwrap();
                    let round_trips = match cfg.kind {
                        TransportKind::Do53 => 1,
                        _ if cfg.reuse == ReusePolicy::Persistent && query > 1 => 1,
                        _ => 3,
                    };
                    assert_eq!(
                        sim.now() - start,
                        rtt * round_trips,
                        "{} query {query} at {rtt}",
                        cfg.label()
                    );
                }
            }
        }
    }

    #[test]
    fn each_tls_kind_offers_exactly_its_own_alpn() {
        for (kind, alpn) in [
            (TransportKind::Dot, ALPN_DOT),
            (TransportKind::DohH1, ALPN_HTTP11),
            (TransportKind::DohH2, ALPN_H2),
        ] {
            let cfg = TransportConfig::new(kind, ReusePolicy::Fresh);
            assert_eq!(cfg.tls().unwrap().alpn, Some(alpn), "{kind:?}");
        }
        assert!(TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh).tls().is_none());
    }

    #[test]
    fn resumption_shrinks_fresh_tls_bytes() {
        let run = |cfg: &TransportConfig| {
            let mut sim = Sim::new(9);
            let stub = sim.add_host("stub");
            let resolver = sim.add_host("resolver");
            sim.add_link(stub, resolver, cfg.link);
            let mut driver = crate::Driver::new();
            driver.serve(&mut sim, cfg, resolver, ServerBackend::echo());
            let client = driver.connect(&mut sim, cfg, stub, resolver);
            let name = Name::parse("abcdefgh.dohmark.test").unwrap();
            driver.resolve(&mut sim, client, &name).unwrap();
            driver.run_until_quiescent(&mut sim);
            sim.meter.cost(1).layers.get(LayerTag::Tls)
        };
        for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
            let full = run(&TransportConfig::new(kind, ReusePolicy::Fresh));
            let resumed = run(&TransportConfig::new(kind, ReusePolicy::Fresh).resumed());
            // Resumption elides the ~2.3 kB certificate chain.
            assert!(resumed + 2000 < full, "{kind:?}: {resumed} vs {full}");
        }
    }
}
