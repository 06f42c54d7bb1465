//! The shared jsontext report builder every figure harness emits through.
//!
//! One [`Report`] replaces the four near-duplicate per-figure JSON
//! emitters the binaries used to hand-roll: a harness names
//! its experiment, attaches top-level metadata, selects which measurement
//! columns its rows carry, and names the metrics to summarise — the
//! builder renders a [`SweepReport`] as one
//! line of JSON parseable by the in-tree `dns-wire::jsontext` codec (the
//! workspace has no serde).
//!
//! Rendering is fully deterministic: rows appear in the sweep's canonical
//! (cell, seed) order, objects preserve insertion order, and floats are
//! written with fixed precision — so a report is byte-identical no matter
//! how many worker threads produced the sweep.

use crate::stats::{summarize, Summary};
use crate::sweep::SweepReport;

/// A JSON value the report writer can serialise deterministically.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, written without a decimal point.
    U64(u64),
    /// A float written with the given number of decimals — fixed
    /// precision keeps renders byte-stable across platforms.
    Fixed(f64, usize),
    /// A string (escaped on write).
    Str(String),
    /// An array of values.
    Array(Vec<Value>),
    /// An object as an ordered key/value list.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Convenience constructor for the common 2-decimal byte metrics.
    pub fn fixed2(v: f64) -> Value {
        Value::Fixed(v, 2)
    }

    /// The numeric view of this value, if it has one — what the stats
    /// layer aggregates.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::Fixed(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Appends this value's JSON text to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::Fixed(v, precision) => {
                out.push_str(&format!("{v:.precision$}"));
            }
            Value::Str(s) => dohmark::dns::jsontext::write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                write_pairs(out, pairs);
                out.push('}');
            }
        }
    }
}

/// Writes `key: value` pairs without the surrounding braces.
fn write_pairs(out: &mut String, pairs: &[(String, Value)]) {
    for (i, (key, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        dohmark::dns::jsontext::write_escaped(out, key);
        out.push_str(": ");
        value.write(out);
    }
}

/// Builder for one experiment's single-line JSON report.
///
/// ```
/// use dohmark_bench::{MatrixCell, Report, SweepSpec, Value};
/// use dohmark::doh::{ReusePolicy, TransportConfig, TransportKind};
///
/// let cfg = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
/// let sweep = SweepSpec::new()
///     .cell(MatrixCell { cfg, resolutions: 2 })
///     .seeds(1..=2)
///     .run()
///     .unwrap();
/// let doc = Report::new("example")
///     .meta("resolutions", Value::U64(2))
///     .columns(&["bytes_per_resolution"])
///     .stats(&["bytes_per_resolution"])
///     .render(&sweep);
/// assert!(doc.starts_with("{\"experiment\": \"example\", \"resolutions\": 2"));
/// ```
#[derive(Debug, Clone)]
pub struct Report {
    experiment: String,
    meta: Vec<(String, Value)>,
    columns: Option<Vec<String>>,
    stats: Vec<String>,
}

impl Report {
    /// A report for the named experiment with no metadata, all columns
    /// and no stats.
    pub fn new(experiment: &str) -> Report {
        Report {
            experiment: experiment.to_string(),
            meta: Vec::new(),
            columns: None,
            stats: Vec::new(),
        }
    }

    /// Appends one top-level metadata key (emitted before `rows`).
    ///
    /// Run-shape parameters (seed count, resolutions per run) belong
    /// here; **never** record the thread count — reports must be
    /// byte-identical across `threads` settings.
    pub fn meta(mut self, key: &str, value: Value) -> Report {
        self.meta.push((key.to_string(), value));
        self
    }

    /// Restricts each row to the named measurement columns, in order
    /// (identity fields — cell, seed, transport … — are always emitted).
    /// Unknown names panic at render time, catching typos in harnesses.
    pub fn columns(mut self, names: &[&str]) -> Report {
        self.columns = Some(names.iter().map(|n| n.to_string()).collect());
        self
    }

    /// Names the metrics to summarise per cell (mean/median/p5/p95/p99
    /// and a bootstrap 95% CI over the cell's seeds) in a top-level
    /// `stats` array.
    pub fn stats(mut self, names: &[&str]) -> Report {
        self.stats = names.iter().map(|n| n.to_string()).collect();
        self
    }

    /// Renders the sweep as one line of JSON.
    pub fn render(&self, sweep: &SweepReport) -> String {
        let mut out = String::from("{\"experiment\": ");
        dohmark::dns::jsontext::write_escaped(&mut out, &self.experiment);
        if !self.meta.is_empty() {
            out.push_str(", ");
            write_pairs(&mut out, &self.meta);
        }
        out.push_str(", \"rows\": [");
        for (i, entry) in sweep.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"cell\": ");
            dohmark::dns::jsontext::write_escaped(&mut out, entry.cell.as_str());
            out.push_str(&format!(", \"seed\": {}", entry.seed));
            if !entry.outcome.identity.is_empty() {
                out.push_str(", ");
                write_pairs(&mut out, &entry.outcome.identity);
            }
            let selected: Vec<(String, Value)> = match &self.columns {
                None => entry.outcome.fields.clone(),
                Some(names) => names
                    .iter()
                    .map(|name| {
                        let value = entry.outcome.field(name).unwrap_or_else(|| {
                            panic!("cell {} has no column {name:?}", entry.cell)
                        });
                        (name.clone(), value.clone())
                    })
                    .collect(),
            };
            if !selected.is_empty() {
                out.push_str(", ");
                write_pairs(&mut out, &selected);
            }
            out.push('}');
        }
        out.push(']');
        if !self.stats.is_empty() {
            out.push_str(", \"stats\": [");
            let mut first = true;
            for cell in sweep.cells() {
                for metric in &self.stats {
                    let samples = sweep.metric(&cell, metric);
                    if samples.is_empty() {
                        panic!("cell {cell} has no numeric metric {metric:?} to summarise");
                    }
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    write_summary(&mut out, cell.as_str(), metric, &summarize(&samples));
                }
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Writes one per-(cell, metric) summary object.
fn write_summary(out: &mut String, cell: &str, metric: &str, s: &Summary) {
    out.push_str("{\"cell\": ");
    dohmark::dns::jsontext::write_escaped(out, cell);
    out.push_str(", \"metric\": ");
    dohmark::dns::jsontext::write_escaped(out, metric);
    out.push_str(&format!(
        ", \"n\": {}, \"mean\": {:.4}, \"median\": {:.4}, \"p5\": {:.4}, \"p95\": {:.4}, \
         \"p99\": {:.4}, \"ci95_lo\": {:.4}, \"ci95_hi\": {:.4}}}",
        s.n, s.mean, s.median, s.p5, s.p95, s.p99, s.ci95.0, s.ci95.1
    ));
}
