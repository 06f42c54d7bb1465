//! Inputs and fixtures the layer benches and the anatomy share: names
//! from a seeded `SimRng`, the DoH header lists, two linked hosts and an
//! established TCP connection over a raw `Sim`.

use dohmark::dns::Name;
use dohmark::netsim::{HostId, LinkConfig, Sim, SimRng, TcpHandle, Wake};

/// Split-stream label of every name corpus.
pub const NAMES_STREAM: u64 = 0x1A7E_0001;

pub fn zone() -> Name {
    Name::parse("dohmark.test").expect("valid zone")
}

/// `n` names `<8 alphanumerics>.dohmark.test`, the shape the sweeps query.
pub fn random_names(rng: &mut SimRng, n: usize) -> Vec<Name> {
    (0..n).map(|_| zone().child(&rng.alnum_string(8)).expect("valid label")).collect()
}

pub fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs.iter().map(|&(n, v)| (n.to_string(), v.to_string())).collect()
}

/// The header list a DoH/2 client sends with a query of `content_length` bytes.
pub fn doh_request_headers(content_length: usize) -> Vec<(String, String)> {
    owned(&[
        (":method", "POST"),
        (":scheme", "https"),
        (":authority", "dns.example.net"),
        (":path", "/dns-query"),
        ("accept", "application/dns-message"),
        ("content-type", "application/dns-message"),
        ("content-length", &content_length.to_string()),
    ])
}

/// The header list a DoH/2 server answers with.
pub fn doh_response_headers(content_length: usize) -> Vec<(String, String)> {
    owned(&[
        (":status", "200"),
        ("content-type", "application/dns-message"),
        ("content-length", &content_length.to_string()),
        ("server", "dohmark"),
    ])
}

/// A simulator with a client and a server host joined by `link`.
pub fn two_hosts(seed: u64, link: LinkConfig) -> (Sim, HostId, HostId) {
    let mut sim = Sim::new(seed);
    let client = sim.add_host("client");
    let server = sim.add_host("server");
    sim.add_link(client, server, link);
    (sim, client, server)
}

/// [`two_hosts`] plus one established TCP connection: `(sim, client end,
/// server end)`.
pub fn tcp_pair(seed: u64, link: LinkConfig, port: u16) -> (Sim, TcpHandle, TcpHandle) {
    let (mut sim, a, b) = two_hosts(seed, link);
    sim.tcp_listen(b, port);
    let client = sim.tcp_connect(a, (b, port));
    let (mut server, mut connected) = (None, false);
    while server.is_none() || !connected {
        match sim.next_wake().expect("the handshake completes") {
            Wake::TcpAccepted { conn, .. } => server = Some(conn),
            Wake::TcpConnected { .. } => connected = true,
            _ => {}
        }
    }
    (sim, client, server.expect("loop exits once accepted"))
}
