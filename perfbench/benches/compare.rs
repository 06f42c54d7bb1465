//! `--compare A.jsonl B.jsonl`: every metric × workload of two result
//! sets (the files `--out` appends to), B against the base A.
//!
//! Per pairing it prints both medians, the ratio with its base, how much
//! worse B is against the metric's bound, and each set's own spread
//! (interquartile range over median). It exits non-zero only on a bound
//! breach. A `report_digest` that differs under the same seed is flagged
//! `sim_changed` — simulated statistics moved — without failing.

use std::collections::BTreeMap;

use dohmark::dns::jsontext::{self, JsonValue};

use crate::e2e::E2E_METRICS;
use crate::layers::LAYER_METRICS;
use crate::record::{quartiles, spread};

/// One result set grouped by workload (`layers` for the layer run).
#[derive(Default)]
struct Set {
    /// group → metric → values in file order.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// group → seed → report digest.
    digests: BTreeMap<String, BTreeMap<u64, String>>,
}

fn number(value: &JsonValue) -> Option<f64> {
    match value {
        JsonValue::Number(n) => Some(*n),
        _ => None,
    }
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::default();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = jsontext::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let group = doc.get("workload").and_then(|w| w.as_str()).unwrap_or("layers").to_string();
        let Some(JsonValue::Object(metrics)) = doc.get("metrics") else {
            return Err(format!("{path}:{}: no metrics object", i + 1));
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(number)
                .ok_or_else(|| format!("{path}:{}: metric {name} has no value", i + 1))?;
            set.values
                .entry(group.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
        let seed = doc.get("seed").and_then(|s| s.as_u64());
        let digest = doc.get("report_digest").and_then(|d| d.as_str());
        if let (Some(seed), Some(digest)) = (seed, digest) {
            set.digests.entry(group).or_default().insert(seed, digest.to_string());
        }
    }
    Ok(set)
}

/// `(better, bound, exact)` of a metric. Layer metrics have no bound;
/// their counts are exact and expected to repeat from set to set.
fn rule(metric: &str) -> Option<(&'static str, Option<f64>, bool)> {
    if let Some(&(_, _, better, bound)) = E2E_METRICS.iter().find(|m| m.0 == metric) {
        return Some((better, Some(bound), false));
    }
    let &(_, unit, better) = LAYER_METRICS.iter().find(|m| m.0 == metric)?;
    Some((better, None, unit == "count"))
}

/// Prints the comparison; `Ok(true)` when no bound is breached.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let mut within_bounds = true;
    println!("base A = {base_path}, B = {new_path}; ratio = B/A; worse_by > bound is a breach");
    println!(
        "{:<16} {:<40} {:>14} {:>14} {:>7} {:>9} {:>6} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "median_A",
        "median_B",
        "ratio",
        "worse_by",
        "bound",
        "spread_A",
        "spread_B"
    );
    for (group, base_metrics) in &base.values {
        let Some(new_metrics) = new.values.get(group) else { continue };
        for (metric, a) in base_metrics {
            let (Some(b), Some((better, bound, exact))) = (new_metrics.get(metric), rule(metric))
            else {
                continue;
            };
            let (median_a, median_b) = (quartiles(a).1, quartiles(b).1);
            let worse_by = match better {
                "higher" => (median_a - median_b) / median_a,
                _ => (median_b - median_a) / median_a,
            };
            let verdict = match bound {
                Some(bound) if worse_by > bound => {
                    within_bounds = false;
                    "BREACH"
                }
                Some(_) => "ok",
                None if exact && median_a != median_b => "count_changed",
                None => "-",
            };
            println!(
                "{group:<16} {metric:<40} {median_a:>14.4} {median_b:>14.4} {:>7.4} {:>+9.4} {:>6} \
                 {:>8.4} {:>8.4}  {verdict}",
                median_b / median_a,
                worse_by,
                bound.map_or("-".to_string(), |b| format!("{b:.2}")),
                spread(a),
                spread(b),
            );
        }
        if let (Some(a), Some(b)) = (base.digests.get(group), new.digests.get(group)) {
            let shared = a.iter().filter(|(seed, _)| b.contains_key(seed)).count();
            let changed = a.iter().filter(|(seed, d)| b.get(seed).is_some_and(|e| e != *d)).count();
            let flag = if changed > 0 { "sim_changed" } else { "identical" };
            println!("{group:<16} report_digest over {shared} shared seeds: {flag}");
        }
    }
    Ok(within_bounds)
}
