//! Shared plumbing: quartiles, the FNV-1a report digest, the metric
//! value type, and the JSON lines the benchmark prints and appends.

use std::fmt::Write as _;

/// One measured metric: its value and unit, keyed by metric name.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// `(q1, median, q3)` by the exclusive method — the same cut points as
/// Python's `statistics.quantiles(values, n=4)`, which the acceptance
/// procedure uses, so spreads printed here match the ones checked there.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        let only = data.first().copied().unwrap_or(f64::NAN);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, median, q3) = quartiles(values);
    (q3 - q1) / median
}

/// 64-bit FNV-1a over the report bytes: the `report_digest`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Logical CPUs available; printed with every result because no timing
/// here means anything without it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` in the current directory
/// only (the driver's checkouts have none: then `unknown`).
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let hash = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head,
    };
    let hash = hash.trim();
    if hash.len() >= 12 && hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        hash[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with `prefix` before each
/// name. Values print with every digit `f64` round-trips.
pub fn metrics_json(out: &mut String, prefix: &str, metrics: &Metrics) {
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{prefix}{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
}

/// The last stdout line the contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_body: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics_body}}}}}"
    )
}

/// Appends one line to a JSONL file, creating it if needed.
pub fn append_line(path: &str, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {path}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("writing {path}: {e}"))
}

/// Prints every metric by name with its unit, one per line.
pub fn print_metrics(prefix: &str, metrics: &Metrics) {
    for (name, value, unit) in metrics {
        println!("{prefix}{name} = {value:.4} {unit}");
    }
}
