//! The full transport matrix, one table: Do53 vs. DoT vs. DoH/1.1 vs.
//! DoH/2 in fresh / fresh+resumed / persistent connection modes — the
//! experiment grid behind the paper's Figures 3–5.
//!
//! Every cell resolves the *same* seeded Poisson workload of
//! constant-length random names through `dohmark_bench::MatrixCell`
//! (the single shared drive loop, also used by `tests/transport_matrix.rs`
//! and the `fig3_bytes_per_resolution` harness), so the per-layer byte
//! table is directly comparable across cells. Two qualitative results of
//! the paper are asserted so CI notices regressions:
//!
//! 1. a cold DoH/2 resolution is the most expensive cell of the matrix
//!    (TCP + full TLS handshake + h2 preface/SETTINGS management), and
//! 2. persistent connections amortise toward the Do53 baseline — with
//!    HPACK's dynamic table visibly shrinking DoH/2 header bytes after
//!    the first query.
//!
//! Deterministic: two runs with the same seed produce byte-identical
//! output. Run with: `cargo run --example transport_shootout`

use dohmark::doh::{ReusePolicy, TransportConfig, TransportKind};
use dohmark_bench::{MatrixCell, MatrixRun};

const SEED: u64 = 42;
const RESOLUTIONS: u16 = 10;

/// One matrix cell's configuration and what it measured.
type Measured = (TransportConfig, MatrixRun);

fn measure(cfg: TransportConfig) -> Measured {
    let cell = MatrixCell { cfg, resolutions: RESOLUTIONS };
    let run = cell.measure(SEED).expect("every resolution completes");
    (cell.cfg, run)
}

fn find(cells: &[Measured], kind: TransportKind, reuse: ReusePolicy, resumed: bool) -> &MatrixRun {
    cells
        .iter()
        .find(|(cfg, _)| cfg.kind == kind && cfg.reuse == reuse && cfg.resumption == resumed)
        .map(|(_, run)| run)
        .expect("matrix covers every cell")
}

fn main() {
    println!(
        "transport_shootout: {RESOLUTIONS} resolutions per cell, seed {SEED}, \
         Poisson mean 50ms, link 14ms rtt / 50 Mbit/s, TLS 1.3"
    );
    println!();

    let cells: Vec<Measured> = TransportConfig::matrix().into_iter().map(measure).collect();

    println!("mean per-resolution bytes on the wire (setup amortised over {RESOLUTIONS}):");
    println!(
        "{:<26}{:>6}{:>8}{:>8}{:>7}{:>7}{:>7}{:>7}{:>8}",
        "cell", "pkts", "l4", "tls", "hdr", "body", "mgmt", "dns", "total"
    );
    for (cfg, c) in &cells {
        // `layers` is in LayerTag::ALL order: Body, Hdr, Mgmt, TLS, L4, DNS.
        let [body, hdr, mgmt, tls, l4, dns] = c.layers.map(|(_, bytes)| bytes);
        println!(
            "{:<26}{:>6.0}{:>8.0}{:>8.0}{:>7.0}{:>7.0}{:>7.0}{:>7.0}{:>8.0}",
            cfg.label(),
            c.packets_per_resolution,
            l4,
            tls,
            hdr,
            body,
            mgmt,
            dns,
            c.bytes_per_resolution,
        );
    }
    println!();

    let h2_persistent = find(&cells, TransportKind::DohH2, ReusePolicy::Persistent, false);
    let h1_persistent = find(&cells, TransportKind::DohH1, ReusePolicy::Persistent, false);
    println!("doh-h2 persistent header bytes per query (HPACK dynamic table at work):");
    let per_query: Vec<String> = h2_persistent
        .header_bytes_per_query
        .iter()
        .enumerate()
        .map(|(i, b)| format!("q{}={b}", i + 1))
        .collect();
    println!("  {}", per_query.join(" "));
    println!(
        "  (doh-h1 persistent repeats its full header text every query: q1={} q2={})",
        h1_persistent.header_bytes_per_query[0], h1_persistent.header_bytes_per_query[1]
    );
    println!();

    // ---- Assertion 1: cold DoH/2 is the costliest cell of the matrix.
    let h2_cold = find(&cells, TransportKind::DohH2, ReusePolicy::Fresh, false);
    for (cfg, c) in &cells {
        if !std::ptr::eq(c, h2_cold) {
            assert!(
                h2_cold.bytes_per_resolution > c.bytes_per_resolution,
                "cold doh-h2 ({:.0} B) must out-cost {} ({:.0} B)",
                h2_cold.bytes_per_resolution,
                cfg.label(),
                c.bytes_per_resolution
            );
        }
    }

    // ---- Assertion 2: per TLS transport, resumption and persistence
    // each cut the mean, in that order.
    for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
        let fresh = find(&cells, kind, ReusePolicy::Fresh, false).bytes_per_resolution;
        let resumed = find(&cells, kind, ReusePolicy::Fresh, true).bytes_per_resolution;
        let persistent = find(&cells, kind, ReusePolicy::Persistent, false).bytes_per_resolution;
        assert!(
            fresh > resumed && resumed > persistent,
            "{kind:?}: fresh {fresh:.0} > resumed {resumed:.0} > persistent {persistent:.0} violated"
        );
    }

    // ---- Assertion 3: persistent connections amortise toward Do53. The
    // steady state (setup excluded) lands within a small factor of the
    // UDP baseline, an order of magnitude below the cold case.
    let do53 = find(&cells, TransportKind::Do53, ReusePolicy::Fresh, false);
    for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
        let steady = find(&cells, kind, ReusePolicy::Persistent, false).steady_bytes_per_resolution;
        let cold = find(&cells, kind, ReusePolicy::Fresh, false).bytes_per_resolution;
        assert!(
            steady < 4.0 * do53.bytes_per_resolution && steady * 5.0 < cold,
            "{kind:?}: steady state {steady:.0} B vs do53 {:.0} B / cold {cold:.0} B",
            do53.bytes_per_resolution
        );
    }

    // ---- Assertion 4: HPACK dynamic-table shrinkage on persistent DoH/2
    // — the first query pays literal headers, every later identical-shape
    // query pays index bytes only; h1 enjoys no such compression.
    let h2 = &h2_persistent.header_bytes_per_query;
    assert!(
        h2.iter().skip(1).all(|&b| 2 * b < h2[0]),
        "later queries ({:?}) must cost less than half the first ({})",
        &h2[1..],
        h2[0]
    );
    assert!(
        h2.windows(2).skip(1).all(|w| w[0] == w[1]),
        "identical-shape queries must hit identical index bytes: {h2:?}"
    );
    let h1 = &h1_persistent.header_bytes_per_query;
    assert!(h1.windows(2).all(|w| w[0] == w[1]), "h1 headers repeat verbatim: {h1:?}");
    assert!(h2[9] < h1[9], "steady-state h2 headers must undercut h1 text");

    // ---- Assertion 5: byte-identical reruns under the fixed seed.
    let (_, rerun) = measure(TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent));
    assert_eq!(&rerun, h2_persistent, "shootout must be deterministic");

    println!("cold doh-h2 is the costliest cell; persistent connections amortise toward do53.");
    println!("ok");
}
