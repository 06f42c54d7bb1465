//! The end-to-end run: four fig sweeps driven as child processes through
//! their frozen `--seeds/--threads/--out` CLI.
//!
//! Load shape: batch, closed — one child at a time at `--threads 1`, the
//! parent only waits. An operation is one cell-run (one cell × one seed =
//! one report row). Nothing here links the code it measures, so the
//! drive layer can be reshaped without this file ceasing to compile.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use dohmark::dns::jsontext;

use crate::record::{fnv1a, quartiles, Metrics};
use crate::reference::SpeedGauge;
use crate::rusage::{run_child, ChildRun};

/// One end-to-end workload: a fig binary and the sweep size it runs at.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also in BENCHMARK.json and the README).
    pub why: &'static str,
    pub bin: &'static str,
    /// Cells in the binary's sweep; rows per report = `cells × seeds`.
    pub cells: u64,
    /// Seeds per repetition at `--seed 0`.
    pub base_seeds: u64,
    /// `--seed n` adds `n % seed_span` seeds, so different benchmark seeds
    /// sweep simulation seeds the base size never reaches while the work
    /// per repetition stays within 5 %. `fleet` is fixed at the binary's
    /// default of one seed: one more doubles the run time.
    pub seed_span: u64,
    /// Sweep size of the threads=1 vs threads=2 byte-identity check.
    pub check_seeds: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "matrix",
        why: "fig3: 2 hosts, 10 transport cells, 6 a fresh TCP+TLS connection per resolution; \
              doh endpoints, tls-model, httpsim, dns-wire, netsim::tcp; no cache, workload, pageload",
        bin: "fig3_bytes_per_resolution",
        cells: 10,
        base_seeds: 100,
        seed_span: 4,
        check_seeds: 40,
    },
    Workload {
        name: "fleet",
        why: "fig_cache_hit_cost: 1000 clients + recursive resolver; Driver routing over 1002 \
              endpoints, deep event heap, DnsCache hit and miss paths, FleetSchedule; most memory",
        bin: "fig_cache_hit_cost",
        cells: 20,
        base_seeds: 1,
        seed_span: 1,
        check_seeds: 1,
    },
    Workload {
        name: "pageload_lossy",
        why: "fig2: load_page's event loop and SiteModel over 5 lossy rungs and 1 clean: RTO, \
              go-back-N, UdpRetry backoff; a fast-path gain that costs the loss path shows here",
        bin: "fig2_hol_blocking",
        cells: 24,
        base_seeds: 20,
        seed_span: 2,
        check_seeds: 8,
    },
    Workload {
        name: "sitemodel",
        why: "fig1: no simulator, only SiteModel, stats and report rendering; the control on \
              which every netsim/doh/codec optimisation predicts no change",
        bin: "fig1_queries_per_page",
        cells: 3,
        base_seeds: 100,
        seed_span: 4,
        check_seeds: 40,
    },
];

/// `(name, unit, better, bound)` of the end-to-end metrics, as in
/// BENCHMARK.json (`--quick` checks the two agree).
pub const E2E_METRICS: [(&str, &str, &str, f64); 3] = [
    ("cell_runs_per_s", "cell-runs/s", "higher", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
];

/// Set-up is repeated this often per run; `setup_s` is the median.
pub const SETUP_UNITS: usize = 5;

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Seeds per repetition under benchmark seed `seed`.
    pub fn seeds_for(&self, seed: u64) -> u64 {
        self.base_seeds + seed % self.seed_span
    }
}

/// Built fig binaries plus a scratch directory for their reports, both
/// inside the checkout; the scratch directory is removed on drop.
pub struct Env {
    bin_dir: PathBuf,
    tmp_dir: PathBuf,
}

impl Env {
    /// Builds the four fig binaries from the checkout in the current
    /// directory (a no-op when they are fresh) and makes the scratch
    /// directory. Build time is reported on stderr and is part of no metric.
    pub fn prepare() -> Result<Env, String> {
        if !std::path::Path::new("crates/bench/Cargo.toml").exists() {
            return Err("run perfbench from the root of a dohmark checkout".to_string());
        }
        let started = Instant::now();
        let mut build = Command::new("cargo");
        build.args(["build", "--release", "--quiet", "--offline", "-p", "dohmark-bench"]);
        for w in &WORKLOADS {
            build.args(["--bin", w.bin]);
        }
        let status = build.status().map_err(|e| format!("running cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the fig binaries failed: {status}"));
        }
        eprintln!("perfbench: fig binaries ready in {:.1} s", started.elapsed().as_secs_f64());
        let target =
            PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
        let tmp_dir = target.join(format!("perfbench-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&tmp_dir).map_err(|e| format!("{}: {e}", tmp_dir.display()))?;
        Ok(Env { bin_dir: target.join("release"), tmp_dir })
    }

    pub fn bin(&self, name: &str) -> String {
        self.bin_dir.join(name).to_string_lossy().into_owned()
    }

    pub fn tmp(&self, file: &str) -> String {
        self.tmp_dir.join(file).to_string_lossy().into_owned()
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp_dir);
    }
}

/// A child whose output does not count: how many of its cell-runs failed,
/// and why.
#[derive(Debug)]
pub struct Failure {
    pub cell_runs: u64,
    pub reason: String,
}

/// Checks a report: parses with `jsontext`, and every `(cell, seed)` of
/// the `cells × seeds` grid appears exactly once.
pub fn check_report(bytes: &[u8], cells: u64, seeds: u64) -> Result<(), Failure> {
    let all = cells * seeds;
    let fail = |cell_runs: u64, reason: String| Err(Failure { cell_runs, reason });
    let Ok(text) = std::str::from_utf8(bytes) else {
        return fail(all, "report is not UTF-8".to_string());
    };
    let doc = match jsontext::parse(text.trim_end()) {
        Ok(doc) => doc,
        Err(e) => return fail(all, format!("report does not parse: {e}")),
    };
    let Some(rows) = doc.get("rows").and_then(|r| r.as_array()) else {
        return fail(all, "report has no rows array".to_string());
    };
    let mut seen = BTreeSet::new();
    let mut cell_names = BTreeSet::new();
    for row in rows {
        let cell = row.get("cell").and_then(|c| c.as_str());
        let seed = row.get("seed").and_then(|s| s.as_u64());
        if let (Some(cell), Some(seed)) = (cell, seed) {
            if (1..=seeds).contains(&seed) {
                cell_names.insert(cell);
                seen.insert((cell, seed));
            }
        }
    }
    let missing = all.saturating_sub(seen.len() as u64);
    let surplus = (rows.len() as u64).saturating_sub(seen.len() as u64);
    if missing + surplus > 0 || cell_names.len() as u64 != cells {
        return fail(
            (missing + surplus).clamp(1, all),
            format!(
                "{} rows over {} cells for a {cells} × {seeds} grid: {missing} missing, \
                 {surplus} duplicate or stray",
                rows.len(),
                cell_names.len()
            ),
        );
    }
    Ok(())
}

/// Judges one finished child: exit code, then its report file.
pub fn judge(run: &ChildRun, out: &str, cells: u64, seeds: u64) -> Result<Vec<u8>, Failure> {
    let all = cells * seeds;
    if run.exit_code != 0 {
        return Err(Failure { cell_runs: all, reason: format!("child exited {}", run.exit_code) });
    }
    let bytes = std::fs::read(out)
        .map_err(|e| Failure { cell_runs: all, reason: format!("reading {out}: {e}") })?;
    check_report(&bytes, cells, seeds)?;
    Ok(bytes)
}

/// Keeps the one digest every repetition of a workload must share.
#[derive(Default)]
pub struct DigestGuard(Option<u64>);

impl DigestGuard {
    pub fn admit(&mut self, digest: u64) -> Result<(), String> {
        match self.0 {
            Some(first) if first != digest => Err(format!(
                "report_digest {digest:016x} differs from the first repetition's {first:016x}"
            )),
            _ => {
                self.0 = Some(digest);
                Ok(())
            }
        }
    }
}

/// One workload's run in progress.
pub struct Run<'a> {
    pub w: &'static Workload,
    env: &'a Env,
    seeds: u64,
    check_seeds: u64,
    attempted: u64,
    failed: u64,
    guard: DigestGuard,
    /// Set-up unit wall times, each with the machine speed around it.
    setup_units: Vec<(f64, f64)>,
    /// Timed repetitions, each with the machine speed around it.
    reps: Vec<(ChildRun, f64)>,
    spent_s: f64,
    aborted: Option<String>,
}

/// What a finished workload run reports.
pub struct Outcome {
    pub w: &'static Workload,
    pub seeds: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub reps: usize,
    /// Raw repetition wall times `(q1, median, q3)`, seconds.
    pub rep_wall_s: (f64, f64, f64),
    /// Machine speed relative to nominal over the repetitions.
    pub machine_speed: (f64, f64, f64),
    pub child_cpu_s: f64,
    pub metrics: Metrics,
    pub problem: Option<String>,
}

impl<'a> Run<'a> {
    pub fn new(w: &'static Workload, env: &'a Env, seeds: u64, check_seeds: u64) -> Run<'a> {
        Run {
            w,
            env,
            seeds,
            check_seeds,
            attempted: 0,
            failed: 0,
            guard: DigestGuard::default(),
            setup_units: Vec::new(),
            reps: Vec::new(),
            spent_s: 0.0,
            aborted: None,
        }
    }

    /// Runs one child to completion and judges it; failures are tallied
    /// and abort the workload (no operation is expected to fail).
    fn child(&mut self, seeds: u64, threads: usize) -> Option<(ChildRun, Vec<u8>)> {
        let out = self.env.tmp(&format!("{}.json", self.w.name));
        let _ = std::fs::remove_file(&out);
        self.attempted += self.w.cells * seeds;
        let judged = run_child(&self.env.bin(self.w.bin), seeds, threads, &out)
            .map_err(|reason| Failure { cell_runs: self.w.cells * seeds, reason })
            .and_then(|run| Ok((run, judge(&run, &out, self.w.cells, seeds)?)));
        match judged {
            Ok(pair) => Some(pair),
            Err(failure) => {
                self.failed += failure.cell_runs;
                self.aborted = Some(failure.reason);
                None
            }
        }
    }

    /// One set-up unit: the same small sweep at `--threads 1` and
    /// `--threads 2` must be byte-identical. It doubles as the warm-up
    /// (a fresh process keeps nothing warm but the page cache).
    pub fn setup_unit(&mut self, gauge: &mut SpeedGauge) {
        if self.aborted.is_some() {
            return;
        }
        let started = Instant::now();
        let Some((_, serial)) = self.child(self.check_seeds, 1) else { return };
        let Some((_, parallel)) = self.child(self.check_seeds, 2) else { return };
        if serial != parallel {
            self.failed += self.w.cells * self.check_seeds;
            self.aborted = Some("--threads 1 and --threads 2 reports differ".to_string());
            return;
        }
        self.setup_units.push((started.elapsed().as_secs_f64(), gauge.speed()));
    }

    /// Whether this workload still has measuring time left.
    pub fn wants_rep(&self, seconds: f64) -> bool {
        self.aborted.is_none() && (self.reps.is_empty() || self.spent_s < seconds)
    }

    /// One timed repetition, bracketed by the gauge's readings.
    pub fn rep(&mut self, gauge: &mut SpeedGauge) {
        let started = Instant::now();
        if let Some((run, bytes)) = self.child(self.seeds, 1) {
            match self.guard.admit(fnv1a(&bytes)) {
                Ok(()) => self.reps.push((run, gauge.speed())),
                Err(reason) => {
                    self.failed += self.w.cells * self.seeds;
                    self.aborted = Some(reason);
                }
            }
        }
        self.spent_s += started.elapsed().as_secs_f64();
    }

    pub fn finish(self) -> Outcome {
        let walls: Vec<f64> = self.reps.iter().map(|(r, _)| r.wall_s).collect();
        let speeds: Vec<f64> = self.reps.iter().map(|&(_, speed)| speed).collect();
        // Seconds at nominal machine speed (see reference.rs).
        let nominal: Vec<f64> = self.reps.iter().map(|(r, speed)| r.wall_s * speed).collect();
        let setups: Vec<f64> = self.setup_units.iter().map(|(wall, speed)| wall * speed).collect();
        let mut metrics = Metrics::new();
        if !self.reps.is_empty() && !setups.is_empty() {
            let cell_runs = (self.w.cells * self.seeds) as f64;
            let peak_kib = self.reps.iter().map(|(r, _)| r.maxrss_kib).max().unwrap_or(0);
            // The lower quartile: interference on a shared box only adds time.
            metrics.push((
                "cell_runs_per_s".to_string(),
                cell_runs / quartiles(&nominal).0,
                "cell-runs/s",
            ));
            metrics.push(("peak_rss_mb".to_string(), peak_kib as f64 / 1024.0, "MiB"));
            metrics.push(("setup_s".to_string(), quartiles(&setups).1, "s"));
        }
        Outcome {
            w: self.w,
            seeds: self.seeds,
            correct: self.aborted.is_none() && self.failed == 0 && !metrics.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            digest: self.guard.0.unwrap_or(0),
            reps: self.reps.len(),
            rep_wall_s: quartiles(&walls),
            machine_speed: quartiles(&speeds),
            child_cpu_s: self.reps.iter().map(|(r, _)| r.cpu_s).sum(),
            metrics,
            problem: self.aborted,
        }
    }
}

/// Runs the given workloads: every set-up first, then timed repetitions
/// round-robin across workloads (so slow machine drift hits all alike)
/// until each has measured for `seconds`. `seconds = 0` is one repetition.
pub fn run(
    env: &Env,
    selected: &[&'static Workload],
    seeds_of: impl Fn(&Workload) -> (u64, u64),
    seconds: f64,
    setup_units: usize,
) -> Vec<Outcome> {
    let mut runs: Vec<Run> = selected
        .iter()
        .map(|w| {
            let (seeds, check_seeds) = seeds_of(w);
            Run::new(w, env, seeds, check_seeds)
        })
        .collect();
    let mut gauge = SpeedGauge::start();
    for run in &mut runs {
        for _ in 0..setup_units {
            run.setup_unit(&mut gauge);
        }
    }
    while runs.iter().any(|r| r.wants_rep(seconds)) {
        for run in runs.iter_mut().filter(|r| r.wants_rep(seconds)) {
            run.rep(&mut gauge);
        }
    }
    runs.into_iter().map(Run::finish).collect()
}

impl Outcome {
    /// The human-readable block printed before the result line.
    pub fn print(&self) {
        let name = self.w.name;
        println!(
            "{name}: {} --seeds {} --threads 1, {} cell-runs per repetition, n={} repetitions",
            self.w.bin,
            self.seeds,
            self.w.cells * self.seeds,
            self.reps
        );
        crate::record::print_metrics(&format!("{name}."), &self.metrics);
        let (q1, median, q3) = self.rep_wall_s;
        println!("{name}.rep_wall_s (raw) q1={q1:.4} median={median:.4} q3={q3:.4}");
        let (q1, median, q3) = self.machine_speed;
        println!("{name}.machine_speed (1 = nominal) q1={q1:.4} median={median:.4} q3={q3:.4}");
        println!("{name}.child_cpu_s = {:.3} s over all repetitions", self.child_cpu_s);
        println!("{name}.report_digest = {:016x}", self.digest);
        println!(
            "{name}.ops_attempted = {} ops_failed = {} failed_share = {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        if let Some(problem) = &self.problem {
            println!("{name}.ABORTED: {problem}");
        }
    }

    /// The line appended to `--out`: one per workload per run.
    pub fn record(&self, seed: u64, seconds: f64) -> String {
        let mut metrics = String::new();
        crate::record::metrics_json(&mut metrics, "", &self.metrics);
        let (q1, median, q3) = self.rep_wall_s;
        let (s1, s2, s3) = self.machine_speed;
        format!(
            "{{\"bench\": \"e2e\", \"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds:?}, \
             \"cores\": {}, \"commit\": \"{}\", \"child_seeds\": {}, \"reps\": {}, \
             \"report_digest\": \"{:016x}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"rep_wall_s\": {{\"q1\": {q1:?}, \"median\": {median:?}, \"q3\": {q3:?}}}, \
             \"machine_speed\": {{\"q1\": {s1:?}, \"median\": {s2:?}, \"q3\": {s3:?}}}, \
             \"child_cpu_s\": {:?}, \"metrics\": {{{metrics}}}}}",
            self.w.name,
            crate::record::cores(),
            crate::record::commit(),
            self.seeds,
            self.reps,
            self.digest,
            self.correct,
            self.attempted,
            self.failed,
            self.child_cpu_s,
        )
    }
}

/// The `--quick` self-test: the three failure shapes the run must catch.
/// Returns one line per case; `Err` names the first case that slipped by.
pub fn self_test(env: &Env) -> Result<Vec<String>, String> {
    let w = &WORKLOADS[0];
    let out = env.tmp("selftest.json");
    let mut lines = Vec::new();

    // A child that exits 2 (`--seeds 0` is a usage error).
    let run = run_child(&env.bin(w.bin), 0, 1, &out)?;
    match judge(&run, &out, w.cells, 2).map(|report| report.len()) {
        Err(f) if run.exit_code == 2 && f.cell_runs == w.cells * 2 => {
            lines.push(format!(
                "self-test exit-2 child: {} failed cell-runs ({})",
                f.cell_runs, f.reason
            ));
        }
        other => return Err(format!("exit-2 child was not counted as failed: {other:?}")),
    }

    // A truncated report file.
    let run = run_child(&env.bin(w.bin), 2, 1, &out)?;
    let good =
        judge(&run, &out, w.cells, 2).map_err(|f| format!("self-test sweep: {}", f.reason))?;
    std::fs::write(&out, &good[..good.len() / 2]).map_err(|e| format!("{out}: {e}"))?;
    match judge(&run, &out, w.cells, 2).map(|report| report.len()) {
        Err(f) if f.cell_runs == w.cells * 2 => {
            lines.push(format!(
                "self-test truncated report: {} failed cell-runs ({})",
                f.cell_runs, f.reason
            ));
        }
        other => return Err(format!("truncated report was not counted as failed: {other:?}")),
    }

    // A digest that changes between repetitions.
    let mut guard = DigestGuard::default();
    guard.admit(fnv1a(&good))?;
    guard.admit(fnv1a(&good))?;
    match guard.admit(fnv1a(&good[..good.len() / 2])) {
        Err(reason) => lines.push(format!("self-test digest mismatch: aborts ({reason})")),
        Ok(()) => return Err("a changed report_digest did not abort the workload".to_string()),
    }
    Ok(lines)
}
