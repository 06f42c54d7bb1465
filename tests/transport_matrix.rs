//! Integration test for the unified transport API: the `TransportConfig`
//! factories must construct every matrix cell, and the cells must
//! reproduce the paper's qualitative cost ordering deterministically —
//! the same properties
//! `examples/transport_shootout.rs` demonstrates, kept under `cargo test`
//! and driven through the same shared `dohmark_bench::MatrixCell` so the
//! example, this test and the figure harnesses measure the same thing.

use dohmark::doh::{ReusePolicy, TransportConfig, TransportKind};
use dohmark_bench::{MatrixCell, MatrixRun};

const RESOLUTIONS: u16 = 6;

fn measure(cfg: TransportConfig, seed: u64) -> MatrixRun {
    MatrixCell { cfg, resolutions: RESOLUTIONS }.measure(seed).expect("every resolution completes")
}

fn cell(kind: TransportKind, reuse: ReusePolicy) -> MatrixRun {
    measure(TransportConfig::new(kind, reuse), 42)
}

#[test]
fn the_matrix_constructs_every_kind_in_both_reuse_modes() {
    let cells = TransportConfig::matrix();
    for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
        for reuse in [ReusePolicy::Fresh, ReusePolicy::Persistent] {
            assert!(
                cells.iter().any(|c| c.kind == kind && c.reuse == reuse),
                "matrix misses {kind:?}/{reuse:?}"
            );
        }
    }
    assert!(cells.iter().any(|c| c.kind == TransportKind::Do53));
    for cfg in cells {
        let label = cfg.label();
        assert!(measure(cfg, 42).bytes_per_resolution > 0.0, "{label} moved no bytes");
    }
}

#[test]
fn cold_doh_h2_is_the_costliest_cell_and_persistence_amortises() {
    let do53 = cell(TransportKind::Do53, ReusePolicy::Fresh).bytes_per_resolution;
    let h2_cold = cell(TransportKind::DohH2, ReusePolicy::Fresh).bytes_per_resolution;
    for (kind, reuse) in [
        (TransportKind::Do53, ReusePolicy::Fresh),
        (TransportKind::Dot, ReusePolicy::Fresh),
        (TransportKind::Dot, ReusePolicy::Persistent),
        (TransportKind::DohH1, ReusePolicy::Fresh),
        (TransportKind::DohH1, ReusePolicy::Persistent),
        (TransportKind::DohH2, ReusePolicy::Persistent),
    ] {
        assert!(
            h2_cold > cell(kind, reuse).bytes_per_resolution,
            "cold doh-h2 must out-cost {kind:?}/{reuse:?}"
        );
    }
    // Persistent connections amortise toward the Do53 baseline: far from
    // the cold cost, within an order of magnitude of UDP.
    for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
        let persistent = cell(kind, ReusePolicy::Persistent).bytes_per_resolution;
        let cold = cell(kind, ReusePolicy::Fresh).bytes_per_resolution;
        assert!(
            persistent * 3.0 < cold && persistent < 10.0 * do53,
            "{kind:?}: persistent {persistent:.0} vs cold {cold:.0} vs do53 {do53:.0}"
        );
    }
}

#[test]
fn persistent_doh_h2_shrinks_header_bytes_via_hpack() {
    let headers = cell(TransportKind::DohH2, ReusePolicy::Persistent).header_bytes_per_query;
    assert!(
        headers.iter().skip(1).all(|&h| 2 * h < headers[0]),
        "dynamic table must at least halve later header blocks: {headers:?}"
    );
    let h1_headers = cell(TransportKind::DohH1, ReusePolicy::Persistent).header_bytes_per_query;
    assert!(
        h1_headers.windows(2).all(|w| w[0] == w[1]),
        "h1 has no header compression: {h1_headers:?}"
    );
    assert!(headers[1] < h1_headers[1], "steady-state h2 headers must undercut h1 text");
}

#[test]
fn the_matrix_is_deterministic_under_a_fixed_seed() {
    for cfg in TransportConfig::matrix() {
        let label = cfg.label();
        assert_eq!(measure(cfg.clone(), 7), measure(cfg, 7), "{label} diverged");
    }
}
