//! The paper's page-load claims, asserted end-to-end on the real
//! fig2/fig6 cell machinery:
//!
//! * **Figure 2 (HOL blocking):** page-load time rises with link loss on
//!   every transport, and on DoH-h2 — one multiplexed TCP connection, so
//!   a lost segment stalls every in-flight query — it rises strictly
//!   faster than on Do53, whose datagrams are independent.
//! * **Figure 6 (transport indifference):** at zero loss all four
//!   transports load the same pages within a narrow band, because DNS
//!   wait is a small slice of the dependency-tree makespan.
//! * **Determinism:** the page-load sweep renders byte-identically at
//!   `threads = 1` and `threads = 8`.

use dohmark::doh::{TransportConfig, TransportKind};
use dohmark::netsim::LinkConfig;
use dohmark_bench::{pageload_transports, PageloadCell, Report, SweepSpec, Value};

const PAGES: usize = 8;
const SEEDS: std::ops::RangeInclusive<u64> = 1..=4;

/// Mean page-load time for one transport at one loss rate, averaged
/// over seeds and pages.
fn mean_pageload_ms(transport: &TransportConfig, loss: f64) -> f64 {
    let link = LinkConfig::clean_broadband().loss(loss);
    let cell = PageloadCell {
        transport: TransportConfig { link, ..transport.clone() },
        link_label: "probe".to_string(),
        pages: PAGES,
    };
    let samples: Vec<f64> = SEEDS
        .map(|seed| {
            let run = cell.measure(seed).expect("probe fits the txn space");
            assert_eq!(run.unresolved, 0, "{} loss {loss} seed {seed}", transport.label());
            run.mean_page_load_ms
        })
        .collect();
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn transport(kind: TransportKind) -> TransportConfig {
    pageload_transports()
        .into_iter()
        .find(|cfg| cfg.kind == kind)
        .expect("every kind is a pageload transport")
}

#[test]
fn fig2_hol_blocking_hits_doh_h2_harder_than_do53() {
    let losses = [0.0, 0.02, 0.04];
    let do53: Vec<f64> =
        losses.iter().map(|&l| mean_pageload_ms(&transport(TransportKind::Do53), l)).collect();
    let h2: Vec<f64> =
        losses.iter().map(|&l| mean_pageload_ms(&transport(TransportKind::DohH2), l)).collect();

    // Loss slows pages down on both transports…
    assert!(do53.windows(2).all(|w| w[0] < w[1]), "do53 not rising with loss: {do53:?}");
    assert!(h2.windows(2).all(|w| w[0] < w[1]), "doh-h2 not rising with loss: {h2:?}");
    // …but head-of-line blocking makes the h2 climb strictly steeper at
    // every rung of the ladder.
    for i in 1..losses.len() {
        let d_do53 = do53[i] - do53[0];
        let d_h2 = h2[i] - h2[0];
        assert!(
            d_h2 > d_do53,
            "at loss {} doh-h2 climbed {d_h2:.1} ms but do53 {d_do53:.1} ms — \
             HOL blocking should hit the multiplexed transport harder",
            losses[i]
        );
    }
}

#[test]
fn fig6_transports_sit_in_a_narrow_band_at_zero_loss() {
    let means: Vec<(String, f64)> =
        pageload_transports().iter().map(|cfg| (cfg.label(), mean_pageload_ms(cfg, 0.0))).collect();
    let lo = means.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min);
    let hi = means.iter().map(|(_, m)| *m).fold(0.0, f64::max);
    // The paper's Figure 6: resolver transport barely moves page-load
    // time. 5% spread is generous — the measured gap is under 2%.
    assert!(hi <= lo * 1.05, "transports should sit within a 5% band at zero loss: {means:?}");
    // The experiment is not vacuous: pages do take real time.
    assert!(lo > 10.0, "pages should take tens of ms: {means:?}");
}

#[test]
fn makespan_is_monotone_in_link_loss_for_every_transport() {
    // The satellite property test: more loss never speeds a page up, on
    // any transport, averaged over seeds and pages to wash out jitter in
    // which packets each loss rate happens to drop.
    let losses = [0.0, 0.03, 0.08];
    for cfg in pageload_transports() {
        let means: Vec<f64> = losses.iter().map(|&l| mean_pageload_ms(&cfg, l)).collect();
        assert!(
            means.windows(2).all(|w| w[0] <= w[1]),
            "{}: makespan must not shrink as loss grows: {means:?}",
            cfg.label()
        );
    }
}

#[test]
fn pageload_sweep_renders_byte_identically_across_thread_counts() {
    let render = |threads: usize| {
        let mut spec = SweepSpec::new();
        for transport in pageload_transports() {
            for (label, loss) in [("clean_broadband", 0.0), ("loss_2pct", 0.02)] {
                let link = LinkConfig::clean_broadband().loss(loss);
                spec = spec.cell(PageloadCell {
                    transport: TransportConfig { link, ..transport.clone() },
                    link_label: label.to_string(),
                    pages: 4,
                });
            }
        }
        let sweep = spec.seeds(1..=3).threads(threads).run().expect("probe fits the txn space");
        Report::new("pageload_determinism_probe")
            .meta("seeds", Value::U64(3))
            .columns(&["mean_page_load_ms", "page_load_ms", "unresolved"])
            .stats(&["mean_page_load_ms"])
            .render(&sweep)
    };
    let serial = render(1);
    assert!(serial.contains("\"page_load_ms\""), "probe must carry the per-page arrays");
    assert_eq!(serial, render(8), "threads=8 must render byte-identically to threads=1");
}
