//! The unified transport configuration and factory behind the paper's
//! transport matrix.
//!
//! A [`TransportConfig`] names one cell of the matrix — transport kind ×
//! [`ReusePolicy`] × TLS resumption — plus the link between stub and
//! resolver; what the resolver is called and answers is the same in every
//! cell ([`TransportConfig::SNI`], [`TransportConfig::ANSWER`]).
//! [`TransportConfig::build_server`] / [`TransportConfig::build_client`]
//! are [`Driver`](crate::Driver) registration factories, so experiment
//! harnesses iterate over configs instead of naming concrete client/server
//! types:
//!
//! ```
//! use dohmark_dns_wire::Name;
//! use dohmark_doh::{Driver, TransportConfig};
//! use dohmark_netsim::Sim;
//!
//! for cfg in TransportConfig::matrix() {
//!     let mut sim = Sim::new(1);
//!     let stub = sim.add_host("stub");
//!     let resolver = sim.add_host("resolver");
//!     sim.add_link(stub, resolver, cfg.link);
//!     let mut driver = Driver::new();
//!     driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
//!     let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
//!     let name = Name::parse("example.com").unwrap();
//!     let response = driver.resolve(&mut sim, client, &name);
//!     assert!(response.is_ok(), "{} failed", cfg.label());
//! }
//! ```

use crate::resolver::ServerBackend;
use crate::{
    Do53Client, Do53Server, DohH1Client, DohH1Server, DohH2Client, DohH2Server, DotClient,
    DotServer, Endpoint, Resolver, ReusePolicy,
};
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
    pub fn port(self) -> u16 {
        match self {
            TransportKind::Do53 => 53,
            TransportKind::Dot => 853,
            TransportKind::DohH1 | TransportKind::DohH2 => 443,
        }
    }

    /// The ALPN protocol the client offers, if the transport runs on TLS.
    pub fn alpn(self) -> Option<&'static str> {
        match self {
            TransportKind::Do53 => None,
            TransportKind::Dot => Some(ALPN_DOT),
            TransportKind::DohH1 => Some(ALPN_HTTP11),
            TransportKind::DohH2 => Some(ALPN_H2),
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
    /// Whether Do53 resends unanswered queries on TCP's RTO schedule (see
    /// [`Do53Client::new`]; ignored by the TLS transports, whose TCP layer
    /// already retransmits). `false` — the default — models a stub with
    /// no application retry, so a lost datagram loses the resolution;
    /// lossy-link experiments set it.
    pub udp_retry: bool,
}

impl TransportConfig {
    /// The resolver's server name: the TLS SNI and the HTTP
    /// `host`/`:authority` value.
    pub const SNI: &'static str = "dns.example.net";
    /// The A record [`TransportConfig::build_server`] answers every query
    /// with.
    pub const ANSWER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    /// That answer's TTL, in seconds.
    pub const TTL: u32 = 300;

    /// A matrix cell with the defaults the examples use: TLS 1.3, no
    /// resumption and the [`LinkConfig::clean_broadband`] link
    /// (14 ms/50 Mbit s⁻¹).
    pub fn new(kind: TransportKind, reuse: ReusePolicy) -> TransportConfig {
        TransportConfig {
            kind,
            reuse,
            resumption: false,
            link: LinkConfig::clean_broadband(),
            udp_retry: false,
        }
    }

    /// Enables TLS session resumption (builder style).
    pub fn resumed(mut self) -> TransportConfig {
        self.resumption = true;
        self
    }

    /// Enables Do53 datagram retransmission (builder style); a no-op for
    /// the TLS transports, which never consult it.
    pub fn with_udp_retry(mut self) -> TransportConfig {
        self.udp_retry = true;
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

    /// The TLS configuration this cell implies (`None` for Do53): TLS 1.3,
    /// [`TlsConfig::for_server`]'s default, to [`Self::SNI`].
    pub fn tls(&self) -> Option<TlsConfig> {
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

    /// Builds this cell's server on `host`, answering every query with
    /// [`Self::ANSWER`] under [`Self::TTL`]. Designed as a
    /// [`Driver::register`](crate::Driver::register) factory, so handles
    /// it binds get the registering endpoint's owner id.
    pub fn build_server(&self, sim: &mut Sim, host: HostId) -> Box<dyn Endpoint> {
        self.build_server_with(sim, host, ServerBackend::fixed(Self::ANSWER, Self::TTL))
    }

    /// [`TransportConfig::build_server`] with an explicit backend — a
    /// synthetic [`Zone`](crate::Zone) or a shared caching
    /// [`RecursiveResolver`](crate::RecursiveResolver).
    pub fn build_server_with(
        &self,
        sim: &mut Sim,
        host: HostId,
        backend: ServerBackend,
    ) -> Box<dyn Endpoint> {
        let port = self.kind.port();
        match self.kind {
            TransportKind::Do53 => Box::new(Do53Server::bind_with(sim, host, port, backend)),
            TransportKind::Dot => {
                let tls = self.tls().expect("dot uses tls");
                Box::new(DotServer::bind_with(sim, host, port, tls, backend))
            }
            TransportKind::DohH1 => {
                let tls = self.tls().expect("doh uses tls");
                Box::new(DohH1Server::bind_with(sim, host, port, tls, backend))
            }
            TransportKind::DohH2 => {
                let tls = self.tls().expect("doh uses tls");
                Box::new(DohH2Server::bind_with(sim, host, port, tls, backend))
            }
        }
    }

    /// Builds this cell's client on `stub`, querying the server on
    /// `resolver` at the transport's well-known port. Clients bind their
    /// handles lazily (at the first query), so this needs no simulator —
    /// but register it through
    /// [`Driver::register_resolver`](crate::Driver::register_resolver) so
    /// those lazy handles get the right owner id.
    pub fn build_client(&self, stub: HostId, resolver: HostId) -> Box<dyn Resolver> {
        let server_addr = (resolver, self.kind.port());
        match self.kind {
            TransportKind::Do53 => Box::new(Do53Client::new(stub, server_addr, self.udp_retry)),
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
            driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
            let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
            let name = Name::parse("abcdefgh.dohmark.test").unwrap();
            for id in 1..=2u16 {
                let response = driver.resolve(&mut sim, client, &name);
                assert!(response.is_ok(), "{} id {id} failed", cfg.label());
            }
            driver.close(&mut sim, client);
            driver.run_until_quiescent(&mut sim);
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
            assert_eq!(cfg.tls().unwrap().alpn, [alpn], "{kind:?}");
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
            driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
            let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
            let name = Name::parse("abcdefgh.dohmark.test").unwrap();
            driver.resolve(&mut sim, client, &name).unwrap();
            driver.run_until_quiescent(&mut sim);
            sim.meter.cost(1).layers.tls
        };
        for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
            let full = run(&TransportConfig::new(kind, ReusePolicy::Fresh));
            let resumed = run(&TransportConfig::new(kind, ReusePolicy::Fresh).resumed());
            // Resumption elides the ~2.3 kB certificate chain.
            assert!(resumed + 2000 < full, "{kind:?}: {resumed} vs {full}");
        }
    }
}
