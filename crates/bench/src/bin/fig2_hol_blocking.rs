//! Figure 2 — TCP head-of-line blocking under packet loss.
//!
//! Loads the same page workload through the four transports of
//! `fleet_transports` over a loss ladder (the clean default, 1/2/4% iid
//! loss, and the named lossy-WiFi and mobile-3G presets). On Do53, a lost
//! datagram costs one retransmission timeout — the stub resends on TCP's
//! RTO schedule, first after the report's `udp_retry_initial_ms` — and
//! queries are independent; on the TCP transports a lost
//! segment stalls the whole connection — DoH-h2 multiplexes every query
//! onto one such connection, so its page-load time climbs with loss
//! faster than Do53's. Over seeds 1–32 that contrast is resolved at 2 % and
//! 4 % loss but not at 1 %, and the jittered presets measure reordering
//! rather than loss (`crates/bench/tests/claims.rs`). Emits per-cell
//! page-load means with p5/p95/CI bands as one line of JSON.

use dohmark::doh::TransportConfig;
use dohmark::netsim::tcp::INIT_RTO;
use dohmark::netsim::LinkConfig;
use dohmark_bench::{fleet_transports, PageloadCell, Report, SweepArgs, SweepSpec, Value};

const DEFAULT_SEEDS: u64 = 5;
const PAGES: usize = 8;

/// The loss ladder: a label for report rows and the link it names.
fn links() -> Vec<(&'static str, LinkConfig)> {
    let clean = LinkConfig::clean_broadband();
    vec![
        ("clean_broadband", clean),
        ("loss_1pct", clean.loss(0.01)),
        ("loss_2pct", clean.loss(0.02)),
        ("loss_4pct", clean.loss(0.04)),
        ("lossy_wifi", LinkConfig::lossy_wifi()),
        ("mobile_3g", LinkConfig::mobile_3g()),
    ]
}

fn main() {
    let args = SweepArgs::from_env(DEFAULT_SEEDS);
    let mut spec = SweepSpec::new();
    for transport in fleet_transports() {
        for (label, link) in links() {
            spec = spec.cell(PageloadCell {
                transport: TransportConfig { link, ..transport.clone() },
                link_label: label.to_string(),
                pages: PAGES,
            });
        }
    }
    let sweep = args.run(spec);
    let doc = Report::new("fig2_hol_blocking")
        .meta("pages", Value::U64(PAGES as u64))
        .meta("seeds", Value::U64(args.seeds))
        .meta("udp_retry_initial_ms", Value::U64(INIT_RTO.as_nanos() / 1_000_000))
        .columns(&[
            "mean_page_load_ms",
            "median_page_load_ms",
            "p95_page_load_ms",
            "mean_dns_wait_ms",
            "unresolved",
        ])
        .stats(&["mean_page_load_ms"])
        .render(&sweep);
    args.emit(&doc);
}
