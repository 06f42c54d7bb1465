//! perfbench — the repo benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]
//! perfbench --quick
//! perfbench --compare A.jsonl B.jsonl
//! ```
//!
//! `--trace 0` (the default) is the end-to-end run of one workload, or of
//! all four interleaved when `--workload` is absent; `--trace 1` is the
//! traced layer run. Either prints every metric by name with its unit and,
//! as the last line of stdout, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Any failed check exits non-zero.

// Wall-clock reads are the whole point of a benchmark; clippy.toml bans
// `Instant::now` everywhere else in the repository.
#![allow(clippy::disallowed_methods)]

mod alloc_count;
mod anatomy;
mod compare;
mod corpus;
mod e2e;
mod layers;
mod record;
mod reference;
mod rusage;
mod spans;

use dohmark::dns::jsontext::{self, JsonValue};
use e2e::{Env, Workload, E2E_METRICS, SETUP_UNITS, WORKLOADS};

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

/// `run_seconds` of BENCHMARK.json: the end-to-end measuring time.
const E2E_SECONDS: f64 = 20.0;
/// Default layer-run measuring time: nine 200 ms samples per bench.
const LAYER_SECONDS: f64 = 80.0;

const USAGE: &str = "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] [--spans FILE] | --quick | --compare A.jsonl B.jsonl";

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts =
        Options { workload: None, seed: 1, seconds: None, trace: false, out: None, spans: None };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                opts.workload =
                    Some(Workload::by_name(value).ok_or_else(|| bad(&"no such workload"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad(&"must be within (0, 3600]"));
                }
                opts.seconds = Some(seconds);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--out" => opts.out = Some(value.clone()),
            "--spans" => opts.spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn print_header() {
    println!(
        "perfbench: cores = {} (closed batch, one child at --threads 1; no --threads speed-up is \
         reported), commit = {}",
        record::cores(),
        record::commit()
    );
    println!(
        "host time of the simulator; the model is unvalidated against the paper's measurements \
         (the repository holds no reference data), so no error figure is given"
    );
}

fn e2e_run(opts: &Options) -> Result<bool, String> {
    let env = Env::prepare()?;
    print_header();
    let selected: Vec<&'static Workload> = match opts.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let seconds = opts.seconds.unwrap_or(E2E_SECONDS);
    let seed = opts.seed;
    let outcomes =
        e2e::run(&env, &selected, |w| (w.seeds_for(seed), w.check_seeds), seconds, SETUP_UNITS);
    report_e2e(&outcomes, seed, seconds, opts.out.as_deref())
}

/// Prints the outcomes and the result line; metric names carry the
/// workload as prefix when more than one ran.
fn report_e2e(
    outcomes: &[e2e::Outcome],
    seed: u64,
    seconds: f64,
    out: Option<&str>,
) -> Result<bool, String> {
    let mut body = String::new();
    for outcome in outcomes {
        outcome.print();
        if let Some(path) = out {
            record::append_line(path, &outcome.record(seed, seconds))?;
        }
        if !body.is_empty() && !outcome.metrics.is_empty() {
            body.push_str(", ");
        }
        let prefix =
            if outcomes.len() > 1 { format!("{}.", outcome.w.name) } else { String::new() };
        record::metrics_json(&mut body, &prefix, &outcome.metrics);
    }
    let correct = outcomes.iter().all(|o| o.correct);
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    println!("{}", record::result_line(correct, attempted, failed, &body));
    Ok(correct)
}

fn layer_run(opts: &Options) -> Result<bool, String> {
    let env = Env::prepare()?;
    print_header();
    // The jsontext corpus is a real fig3 report, made by the real binary.
    let fig3 = &WORKLOADS[0];
    let report_path = env.tmp("fig3.json");
    let child = rusage::run_child(&env.bin(fig3.bin), 4, 1, &report_path)?;
    let report = e2e::judge(&child, &report_path, fig3.cells, 4)
        .map_err(|f| format!("fig3 corpus report: {}", f.reason))?;
    let report = String::from_utf8(report).map_err(|e| format!("fig3 corpus report: {e}"))?;

    let seconds = opts.seconds.unwrap_or(LAYER_SECONDS);
    let (results, spans) = layers::run(opts.seed, seconds, report.trim_end());
    let checks = results.checks;
    let metrics = results.into_metrics();
    record::print_metrics("", &metrics);
    if let Some(path) = &opts.spans {
        std::fs::write(path, &spans).map_err(|e| format!("{path}: {e}"))?;
        println!("spans written to {path}");
    }
    let mut body = String::new();
    record::metrics_json(&mut body, "", &metrics);
    if let Some(path) = &opts.out {
        let line = format!(
            "{{\"bench\": \"layers\", \"seed\": {}, \"seconds\": {seconds:?}, \"cores\": {}, \
             \"commit\": \"{}\", \"correct\": true, \"attempted\": {checks}, \"failed\": 0, \
             \"metrics\": {{{body}}}}}",
            opts.seed,
            record::cores(),
            record::commit()
        );
        record::append_line(path, &line)?;
    }
    // A failed layer check panics, so reaching this line means all passed.
    println!("{}", record::result_line(true, checks, 0, &body));
    Ok(true)
}

/// Checks that BENCHMARK.json in the current directory lists the same
/// workloads and metrics as the tables in this program.
fn check_manifest() -> Result<String, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = jsontext::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str, fields: &[&str]| -> Result<Vec<Vec<String>>, String> {
        let items = doc.get(key).and_then(|v| v.as_array()).ok_or(format!("no {key} array"))?;
        Ok(items
            .iter()
            .map(|item| {
                fields
                    .iter()
                    .map(|f| match item.get(f) {
                        Some(JsonValue::String(s)) => s.clone(),
                        Some(JsonValue::Number(n)) => format!("{n:.2}"),
                        _ => "?".to_string(),
                    })
                    .collect()
            })
            .collect())
    };
    let strings = |row: &[&str]| row.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let expect_workloads: Vec<_> = WORKLOADS.iter().map(|w| strings(&[w.name, w.why])).collect();
    let expect_e2e: Vec<_> = E2E_METRICS
        .iter()
        .map(|&(name, unit, better, bound)| strings(&[name, unit, better, &format!("{bound:.2}")]))
        .collect();
    let expect_layers: Vec<_> = layers::LAYER_METRICS
        .iter()
        .map(|&(name, unit, better)| strings(&[name, unit, better]))
        .collect();
    for (key, fields, expect) in [
        ("workloads", &["name", "why"][..], expect_workloads),
        ("end_to_end", &["name", "unit", "better", "bound"][..], expect_e2e),
        ("per_layer", &["name", "unit", "better"][..], expect_layers),
    ] {
        let found = list(key, fields)?;
        if let Some(i) = (0..found.len().max(expect.len())).find(|&i| found.get(i) != expect.get(i))
        {
            return Err(format!(
                "BENCHMARK.json {key}[{i}] is {:?}, the program has {:?}",
                found.get(i),
                expect.get(i)
            ));
        }
    }
    Ok(format!(
        "BENCHMARK.json agrees with the program: {} workloads, {} end-to-end and {} per-layer metrics",
        WORKLOADS.len(),
        E2E_METRICS.len(),
        layers::LAYER_METRICS.len()
    ))
}

/// The smoke mode: one repetition at a twentieth of the seeds, every
/// check, the three self-test cases and the manifest comparison.
fn quick() -> Result<bool, String> {
    let env = Env::prepare()?;
    print_header();
    println!("{}", check_manifest()?);
    for line in e2e::self_test(&env)? {
        println!("{line}");
    }
    let selected: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let outcomes =
        e2e::run(&env, &selected, |w| ((w.base_seeds / 20).max(1), w.check_seeds.min(2)), 0.0, 1);
    report_e2e(&outcomes, 0, 0.0, None)
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("--quick") if args.len() == 1 => quick(),
        Some("--compare") => match &args[1..] {
            [base, new] => compare::compare(base, new),
            _ => Err(USAGE.to_string()),
        },
        _ => {
            let opts = parse(args)?;
            if opts.trace {
                layer_run(&opts)
            } else {
                e2e_run(&opts)
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--one-rep") {
        std::process::exit(rusage::helper_main(&args[1..]));
    }
    let code = match run(&args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("perfbench: {message}");
            2
        }
    };
    std::process::exit(code);
}
