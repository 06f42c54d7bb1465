//! Per-resolution DNS transport cost: UDP Do53 vs. cold DoT vs. persistent
//! DoT — the experiment behind the paper's Figure 3.
//!
//! Resolves the same seeded Poisson workload of constant-length random
//! names over three transports and prints the mean per-resolution byte
//! cost split by layer. Deterministic: two runs with the same seed produce
//! byte-identical output.
//!
//! Each scenario is one [`TransportConfig`] cell registered in a
//! [`Driver`] — the same addressed-routing drive loop the figure
//! harnesses and fleet experiments use.
//!
//! Run with: `cargo run --example cost_comparison`

use dohmark::dns::Name;
use dohmark::doh::{Driver, ReusePolicy, TransportConfig, TransportKind};
use dohmark::netsim::{Cost, CostMeter, Sim, SimDuration};
use dohmark::tls::handshake_bytes;
use dohmark::workload::QuerySchedule;

const SEED: u64 = 42;
const RESOLUTIONS: u16 = 20;
const WORKLOAD_STREAM: u64 = 0;

/// One scenario: a fresh simulator, the same seeded workload, N sequential
/// resolutions driven through a registered client/server pair.
fn run(cfg: &TransportConfig) -> CostMeter {
    let mut sim = Sim::new(SEED);
    let stub = sim.add_host("stub");
    let resolver = sim.add_host("resolver");
    sim.add_link(stub, resolver, cfg.link);
    let mut driver = Driver::new();
    driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
    let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
    // The workload RNG is split from the simulator seed, so every
    // scenario resolves the identical (arrival, name) stream.
    let mut rng = sim.split_rng(WORKLOAD_STREAM);
    let zone = Name::parse("dohmark.test").unwrap();
    let schedule = QuerySchedule::new(&mut rng, SimDuration::from_millis(50), 8, &zone);
    for (at, name) in schedule.take(usize::from(RESOLUTIONS)) {
        driver.advance_until(&mut sim, at);
        driver
            .resolve(&mut sim, client, &name)
            .unwrap_or_else(|txn| panic!("{} resolution {txn} completes", cfg.label()));
    }
    driver.run_until_quiescent(&mut sim);
    let mut meter = CostMeter::new();
    std::mem::swap(&mut meter, &mut sim.meter);
    meter
}

/// Mean per-resolution cost over ids 1..=N plus any connection-setup cost
/// (attr 0), which persistent transports amortise across all resolutions.
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

fn mean_row(label: &'static str, meter: &CostMeter, udp_transport: bool) -> Row {
    let mut sum = Cost::default();
    for attr in 0..=u32::from(RESOLUTIONS) {
        let c = meter.cost(attr);
        sum.bytes += c.bytes;
        sum.packets += c.packets;
        sum.layers.merge(&c.layers);
    }
    let n = f64::from(RESOLUTIONS);
    // The meter tracks IP+transport headers as one layer; every simulated
    // packet carries a 20-byte IPv4 header, so the split is exact.
    let ip = sum.packets as f64 * 20.0;
    let transport = sum.layers.l4_header as f64 - ip;
    Row {
        label,
        packets: sum.packets as f64 / n,
        ip: ip / n,
        udp: if udp_transport { transport / n } else { 0.0 },
        tcp: if udp_transport { 0.0 } else { transport / n },
        tls: sum.layers.tls as f64 / n,
        dns: sum.layers.dns as f64 / n,
        total: sum.bytes as f64 / n,
    }
}

fn main() {
    let do53_cfg = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
    let dot_cold_cfg = TransportConfig::new(TransportKind::Dot, ReusePolicy::Fresh);
    let dot_persistent_cfg = TransportConfig::new(TransportKind::Dot, ReusePolicy::Persistent);
    let tls = dot_cold_cfg.tls().expect("dot uses tls");
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
        mean_row("do53 (udp)", &run(&do53_cfg), true),
        mean_row("dot cold", &run(&dot_cold_cfg), false),
        mean_row("dot persistent", &run(&dot_persistent_cfg), false),
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
