//! Per-resolution DNS transport cost: UDP Do53 vs. cold DoT vs. persistent
//! DoT — the experiment behind the paper's Figure 3.
//!
//! Resolves the same seeded Poisson workload of constant-length random
//! names over three transports and prints the mean per-resolution byte
//! cost split by layer. Deterministic: two runs with the same seed produce
//! byte-identical output.
//!
//! Each scenario is one [`TransportConfig`] cell run through
//! `dohmark_bench::MatrixCell` — the single shared drive loop, also used
//! by `transport_shootout`, `tests/transport_matrix.rs` and the
//! `fig3_bytes_per_resolution` harness.
//!
//! Run with: `cargo run --example cost_comparison`

use dohmark::doh::{ReusePolicy, TransportConfig, TransportKind};
use dohmark::tls::handshake_bytes;
use dohmark_bench::MatrixCell;

const SEED: u64 = 42;
const RESOLUTIONS: u16 = 20;

/// Mean per-resolution cost, connection setup and teardown amortised
/// across all resolutions.
struct Row {
    label: &'static str,
    packets: f64,
    ip: f64,
    udp: f64,
    tcp: f64,
    tls: f64,
    dns: f64,
    total: f64,
}

fn measure(label: &'static str, cfg: TransportConfig) -> Row {
    let udp_transport = cfg.kind == TransportKind::Do53;
    let run = MatrixCell { cfg, resolutions: RESOLUTIONS }
        .measure(SEED)
        .expect("every resolution completes");
    // `layers` is in LayerTag::ALL order: Body, Hdr, Mgmt, TLS, L4, DNS.
    let [_, _, _, tls, l4, dns] = run.layers.map(|(_, bytes)| bytes);
    // The meter tracks IP+transport headers as one layer; every simulated
    // packet carries a 20-byte IPv4 header, so the split is exact.
    let ip = run.packets_per_resolution * 20.0;
    Row {
        label,
        packets: run.packets_per_resolution,
        ip,
        udp: if udp_transport { l4 - ip } else { 0.0 },
        tcp: if udp_transport { 0.0 } else { l4 - ip },
        tls,
        dns,
        total: run.bytes_per_resolution,
    }
}

fn main() {
    let dot_cold = TransportConfig::new(TransportKind::Dot, ReusePolicy::Fresh);
    let tls = dot_cold.tls().expect("dot uses tls");
    println!(
        "cost_comparison: {RESOLUTIONS} resolutions per scenario, seed {SEED}, \
         Poisson mean 50ms"
    );
    println!(
        "link: 14ms rtt, 50 Mbit/s | TLS 1.3, {} B certificate chain, {} B full handshake",
        tls.cert_chain.iter().sum::<usize>(),
        handshake_bytes(&tls),
    );
    println!();

    let rows = [
        measure("do53 (udp)", TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh)),
        measure("dot cold", dot_cold),
        measure(
            "dot persistent",
            TransportConfig::new(TransportKind::Dot, ReusePolicy::Persistent),
        ),
    ];

    println!("mean per-resolution bytes on the wire (both directions):");
    println!(
        "{:<16}{:>6}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "scenario", "pkts", "ip", "udp", "tcp", "tls", "dns", "total"
    );
    for r in &rows {
        println!(
            "{:<16}{:>6.1}{:>9.1}{:>9.1}{:>9.1}{:>9.1}{:>9.1}{:>9.1}",
            r.label, r.packets, r.ip, r.udp, r.tcp, r.tls, r.dns, r.total
        );
    }
    println!();
    println!(
        "cold DoT pays the TLS handshake on every resolution ({:.0} B of TLS per query);",
        rows[1].tls
    );
    println!(
        "persistent DoT amortises it across {RESOLUTIONS} queries ({:.0} B of TLS per query).",
        rows[2].tls
    );

    // The qualitative Figure 3 result, enforced so CI notices regressions.
    assert!(
        rows[1].total > 4.0 * rows[0].total,
        "cold DoT ({:.0} B) must dwarf Do53 ({:.0} B)",
        rows[1].total,
        rows[0].total
    );
    assert!(
        rows[2].total < rows[1].total / 2.0,
        "persistent DoT ({:.0} B) must amortise well below cold ({:.0} B)",
        rows[2].total,
        rows[1].total
    );
    assert_eq!(rows[1].dns, rows[2].dns, "identical workload ⇒ identical DNS payload bytes");
    println!("ok");
}
