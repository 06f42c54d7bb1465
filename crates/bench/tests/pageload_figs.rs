//! Determinism of the page-load sweep that feeds the fig2/fig6
//! binaries: the same cells rendered at `threads = 1` and `threads = 8`
//! must give byte-identical JSON, per-page arrays included. The paper's
//! page-load claims themselves are asserted in `claims.rs`.

use dohmark::doh::TransportConfig;
use dohmark::netsim::LinkConfig;
use dohmark_bench::{fleet_transports, PageloadCell, Report, SweepSpec, Value};

#[test]
fn pageload_sweep_renders_byte_identically_across_thread_counts() {
    let render = |threads: usize| {
        let mut spec = SweepSpec::new();
        for transport in fleet_transports() {
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
