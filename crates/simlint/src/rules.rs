//! The rule catalog and the finding sink with `simlint::allow` support.
//!
//! Every rule is a plain function registered in the [`RULES`] table —
//! adding a rule is writing one function, one table row, and one golden
//! fixture. Each is a lexical pass over one scrubbed [`FileView`]: it
//! sees lines, never items or other files, so what a rule can flag is
//! what a reader can see on the flagged line. Rules report through
//! [`Sink::report`], which consults the file's
//! `// simlint::allow(<rule>): <reason>` annotations: an allow on the
//! finding's line or the line directly above suppresses it (and is
//! marked used; unused or malformed allows become findings themselves).

use crate::lexer::{find_token, has_token, is_ident_char, Line};

/// One lint finding, printed as `file:line rule message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier from the catalog.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{} {} {}", self.file, self.line, self.rule, self.message)
    }
}

/// A scrubbed file plus the path-derived facts rules scope on.
pub struct FileView {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Scrubbed lines, 0-indexed (findings report 1-based).
    pub lines: Vec<Line>,
}

impl FileView {
    fn has_component(&self, name: &str) -> bool {
        self.rel.split('/').any(|c| c == name)
    }

    /// Wall-clock timing harnesses live under a `benches/` directory.
    pub fn is_bench(&self) -> bool {
        self.has_component("benches")
    }

    /// Integration tests (a `tests/` path component).
    pub fn is_test_path(&self) -> bool {
        self.has_component("tests")
    }

    /// Is line `i` exempt as test code (unit-test mod or tests/ file)?
    fn test_line(&self, i: usize) -> bool {
        self.is_test_path() || self.lines[i].in_test
    }
}

/// One row of the catalog.
pub struct Rule {
    /// The identifier used in findings and `simlint::allow(...)`.
    pub name: &'static str,
    /// One-line description: what the rule flags and what to write instead.
    pub summary: &'static str,
    /// The check itself: a lexical pass over one scrubbed file.
    pub check: fn(&FileView, &mut Sink),
}

/// The rule catalog. Order is the report order within a line.
pub const RULES: &[Rule] = &[
    Rule {
        name: "no-wall-clock",
        summary: "Instant::now / SystemTime::now / .elapsed() outside benches/ — \
                  simulated code reads time from Sim::now()",
        check: no_wall_clock,
    },
    Rule {
        name: "no-thread-outside-sweep",
        summary: "std::thread / atomics outside bench::sweep — parallelism is confined \
                  to the sweep runner",
        check: no_thread_outside_sweep,
    },
    Rule {
        name: "seed-discipline",
        summary: "a literal or misnamed seed fed to SimRng::new / split / split_rng in \
                  non-test code — seeds and stream labels are named *_SEED / *_STREAM \
                  constants",
        check: seed_discipline,
    },
    Rule {
        name: "wake-via-driver",
        summary: "Sim wake scheduling (schedule_app, next_wake*) called from doh code \
                  outside driver.rs — wakes route through the Driver registry",
        check: wake_via_driver,
    },
    Rule {
        name: "no-float-accumulation",
        summary: "f64 accumulation (+=, .sum(), .fold()) in bench::stats / bench::report — \
                  each site states its iteration order in a simlint::allow",
        check: no_float_accumulation,
    },
    Rule {
        name: "stable-sort-for-reports",
        summary: "sort_unstable_by / sort_unstable_by_key in report-feeding crates — \
                  equal keys land in arbitrary order; use the stable sort_by forms",
        check: stable_sort_for_reports,
    },
];

/// Is `name` a catalog rule (valid in `simlint::allow`)?
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

// ------------------------------------------------------------------
// The allow sink
// ------------------------------------------------------------------

#[derive(Debug)]
struct Allow {
    line: usize, // 0-based
    rule: String,
    has_reason: bool,
    used: bool,
}

/// Collects one file's findings, applying `simlint::allow` suppression.
pub struct Sink {
    rel: String,
    allows: Vec<Allow>,
    findings: Vec<Finding>,
}

impl Sink {
    /// Parses the allows out of a file's comment channel.
    pub fn new(view: &FileView) -> Sink {
        let mut allows = Vec::new();
        for (i, line) in view.lines.iter().enumerate() {
            let mut rest = line.comment.as_str();
            while let Some(pos) = rest.find("simlint::allow") {
                rest = &rest[pos + "simlint::allow".len()..];
                let Some(inner) = rest.strip_prefix('(') else { continue };
                let Some(close) = inner.find(')') else { continue };
                let rule = inner[..close].trim().to_string();
                let tail = inner[close + 1..].trim_start();
                let has_reason = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
                allows.push(Allow { line: i, rule, has_reason, used: false });
                rest = &inner[close + 1..];
            }
        }
        Sink { rel: view.rel.clone(), allows, findings: Vec::new() }
    }

    /// Reports a finding at 0-based line `i`, unless an allow for `rule`
    /// sits on that line or the one above.
    pub fn report(&mut self, i: usize, rule: &'static str, message: String) {
        let allowed = self
            .allows
            .iter_mut()
            .find(|a| a.rule == rule && a.has_reason && (a.line == i || a.line + 1 == i));
        if let Some(a) = allowed {
            a.used = true;
            return;
        }
        self.findings.push(Finding { file: self.rel.clone(), line: i + 1, rule, message });
    }

    /// Emits the meta-findings (malformed / unknown / unused allows) and
    /// returns everything sorted by line, then rule.
    pub fn finish(mut self) -> Vec<Finding> {
        for a in &self.allows {
            let (rule, message) = if !is_rule(&a.rule) {
                ("allow-syntax", format!("unknown rule {:?} in simlint::allow", a.rule))
            } else if !a.has_reason {
                (
                    "allow-syntax",
                    format!(
                        "simlint::allow({}) needs a reason: `// simlint::allow({}): <why>`",
                        a.rule, a.rule
                    ),
                )
            } else if !a.used {
                (
                    "unused-allow",
                    format!(
                        "simlint::allow({}) suppresses nothing on this or the next line",
                        a.rule
                    ),
                )
            } else {
                continue;
            };
            self.findings.push(Finding { file: self.rel.clone(), line: a.line + 1, rule, message });
        }
        self.findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        self.findings
    }
}

// ------------------------------------------------------------------
// The rules
// ------------------------------------------------------------------

fn no_wall_clock(view: &FileView, sink: &mut Sink) {
    if view.is_bench() {
        return;
    }
    for (i, line) in view.lines.iter().enumerate() {
        for pat in ["Instant::now", "SystemTime::now"] {
            if has_token(&line.code, pat) {
                sink.report(
                    i,
                    "no-wall-clock",
                    format!("wall clock `{pat}` outside benches/ — use Sim::now()"),
                );
            }
        }
        if line.code.contains(".elapsed(") {
            sink.report(
                i,
                "no-wall-clock",
                "wall clock `.elapsed()` outside benches/ — use Sim::now() arithmetic".to_string(),
            );
        }
    }
}

fn no_thread_outside_sweep(view: &FileView, sink: &mut Sink) {
    // benches/ are wall-clock harnesses (already outside the
    // determinism domain, cf. no-wall-clock) and may query core counts;
    // everything else threads only through the sweep runner.
    if view.rel == "crates/bench/src/sweep.rs" || view.is_bench() {
        return;
    }
    for (i, line) in view.lines.iter().enumerate() {
        for pat in ["std::thread", "std::sync::atomic"] {
            if has_token(&line.code, pat) {
                sink.report(
                    i,
                    "no-thread-outside-sweep",
                    format!(
                        "`{pat}` outside bench::sweep — the simulator is single-threaded \
                             by design; parallelism lives in the sweep runner"
                    ),
                );
            }
        }
        if let Some(atomic) = atomic_type_token(&line.code) {
            sink.report(
                i,
                "no-thread-outside-sweep",
                format!(
                    "atomic type `{atomic}` outside bench::sweep — shared mutable state \
                         belongs in the sweep runner"
                ),
            );
        }
    }
}

/// The first `Atomic*` type token on the line (`AtomicUsize`, `AtomicBool`, …).
fn atomic_type_token(code: &str) -> Option<String> {
    let mut from = 0;
    while let Some(pos) = find_token_prefix(code, "Atomic", from) {
        let tail: String = code[pos..].chars().take_while(|&c| is_ident_char(c)).collect();
        if tail.len() > "Atomic".len() {
            return Some(tail);
        }
        from = pos + "Atomic".len();
    }
    None
}

/// Like [`find_token`] but only the *left* boundary is checked, so the
/// pattern may be an identifier prefix.
fn find_token_prefix(code: &str, pat: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while let Some(off) = code[start..].find(pat) {
        let pos = start + off;
        if code[..pos].chars().next_back().map_or(true, |c| !is_ident_char(c)) {
            return Some(pos);
        }
        start = pos + 1;
    }
    None
}

/// The leading token of the first argument after an open paren: a
/// digit-leading literal (`42`, `0xBEEF`) or the last segment of an
/// identifier path (`SiteModel::RANK_STREAM` → `RANK_STREAM`). `None`
/// for anything else — closures, string/char separators (already
/// scrubbed to bare quotes), references.
fn leading_arg_token(after_paren: &str) -> Option<String> {
    let rest = after_paren.trim_start();
    let first = rest.chars().next()?;
    if !is_ident_char(first) {
        return None;
    }
    let path: String = rest.chars().take_while(|&c| is_ident_char(c) || c == ':').collect();
    let last = path.rsplit("::").next().unwrap_or(&path).trim_matches(':');
    if last.is_empty() {
        None
    } else {
        Some(last.to_string())
    }
}

/// An ALL_CAPS constant name (at least one uppercase letter; only
/// uppercase, digits and underscores).
fn is_screaming(tok: &str) -> bool {
    tok.chars().any(|c| c.is_ascii_uppercase())
        && tok.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Seeds and stream labels decide every simulated byte, so they must be
/// auditable at the call site: a literal `42` fed to `SimRng::new`, or a
/// constant whose name hides that it is a seed, is how two subsystems
/// end up sharing a stream by accident. Outside test code the first
/// argument of `SimRng::new` / `.split` / `.split_rng` must be a named
/// `*_SEED` / `*_STREAM` constant (or a runtime variable such as a sweep
/// seed, which lowercase names are).
fn seed_discipline(view: &FileView, sink: &mut Sink) {
    for (i, line) in view.lines.iter().enumerate() {
        if view.test_line(i) {
            continue;
        }
        for (api, method) in [("SimRng::new", false), ("split_rng", true), ("split", true)] {
            let mut from = 0;
            while let Some(pos) = find_token(&line.code, api, from) {
                from = pos + api.len();
                if method && !line.code[..pos].trim_end().ends_with('.') {
                    continue;
                }
                let Some(args) = line.code[from..].trim_start().strip_prefix('(') else {
                    continue;
                };
                let Some(tok) = leading_arg_token(args) else { continue };
                if tok.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    sink.report(
                        i,
                        "seed-discipline",
                        format!(
                            "literal seed `{tok}` passed to `{api}` — name it as a \
                             `*_SEED`/`*_STREAM` constant"
                        ),
                    );
                } else if is_screaming(&tok)
                    && !(tok.ends_with("_SEED")
                        || tok.ends_with("_STREAM")
                        || tok == "SEED"
                        || tok == "STREAM")
                {
                    sink.report(
                        i,
                        "seed-discipline",
                        format!(
                            "seed constant `{tok}` passed to `{api}` — rename it to end \
                             in `_SEED` or `_STREAM` so the stream is auditable"
                        ),
                    );
                }
            }
        }
    }
}

/// The `Sim` wake-scheduling entry points `wake-via-driver` guards.
const WAKE_APIS: &[&str] = &["schedule_app", "schedule_app_in", "next_wake", "next_wake_owned"];

/// The one file whose wake calls are blessed: the `Driver` registry,
/// whose `step` is the single place wakes are popped, and the endpoint
/// timer helper beside it.
const DRIVER_FILE: &str = "crates/doh/src/driver.rs";

/// Wakes must route through the `Driver` registry: a call of a `Sim`
/// wake API in `crates/doh/src/` outside `driver.rs` is a finding. A
/// line check is the whole rule because `doh` depends only on crates
/// whose sole wake-scheduling functions are these four `Sim` methods —
/// any helper an endpoint could reach a wake through is itself doh code,
/// where its own call is flagged.
fn wake_via_driver(view: &FileView, sink: &mut Sink) {
    if !view.rel.starts_with("crates/doh/src/") || view.rel == DRIVER_FILE {
        return;
    }
    for (i, line) in view.lines.iter().enumerate() {
        if view.test_line(i) {
            continue;
        }
        for api in WAKE_APIS {
            let mut from = 0;
            while let Some(pos) = find_token(&line.code, api, from) {
                from = pos + api.len();
                if line.code[from..].trim_start().starts_with('(') {
                    sink.report(
                        i,
                        "wake-via-driver",
                        format!(
                            "direct Sim wake call `{api}` outside doh::driver — endpoints \
                             rearm through the Driver registry"
                        ),
                    );
                    break;
                }
            }
        }
    }
}

/// The files `no-float-accumulation` covers.
const FLOAT_SCOPE: &[&str] = &["crates/bench/src/stats.rs", "crates/bench/src/report.rs"];
const FLOAT_PATTERNS: &[&str] = &["+=", ".sum::<", ".sum()", ".fold(", ".product("];

/// Float addition is not associative, so *where* an accumulation
/// iterates decides report bytes. Every accumulation in `bench::stats` /
/// `bench::report` is a finding until a `simlint::allow` on it states
/// the order it iterates in.
fn no_float_accumulation(view: &FileView, sink: &mut Sink) {
    if !FLOAT_SCOPE.contains(&view.rel.as_str()) {
        return;
    }
    for (i, line) in view.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if let Some(pat) = FLOAT_PATTERNS.iter().find(|p| line.code.contains(*p)) {
            sink.report(
                i,
                "no-float-accumulation",
                format!(
                    "`{pat}` accumulates where summation order is report-visible — state \
                     the order it iterates in: `// simlint::allow(no-float-accumulation): \
                     <order>`"
                ),
            );
        }
    }
}

/// The crates whose sorts can reach `Report` rows.
const REPORT_FEEDING: &[&str] = &["crates/workload/src/", "crates/bench/src/", "crates/doh/src/"];

/// `sort_unstable_by{,_key}` leaves equal keys in arbitrary order; in a
/// report-feeding crate that is a byte-determinism hazard. Plain
/// `.sort_unstable()` on a total order stays legal — with a full key
/// there is nothing for instability to reorder.
fn stable_sort_for_reports(view: &FileView, sink: &mut Sink) {
    if !REPORT_FEEDING.iter().any(|p| view.rel.starts_with(p)) || view.is_bench() {
        return;
    }
    for (i, line) in view.lines.iter().enumerate() {
        if view.test_line(i) {
            continue;
        }
        for (pat, stable) in
            [("sort_unstable_by_key", "sort_by_key"), ("sort_unstable_by", "sort_by")]
        {
            if line.code.contains(&format!(".{pat}(")) {
                sink.report(
                    i,
                    "stable-sort-for-reports",
                    format!(
                        "`.{pat}()` — equal keys land in arbitrary order and can reach \
                         report rows; use the stable `.{stable}()` or key on the whole \
                         element"
                    ),
                );
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        crate::lint_source(rel, src)
    }

    #[test]
    fn wall_clock_is_legal_in_benches() {
        let src = "use std::time::Instant;\nfn main() { let t = Instant::now(); t.elapsed(); }\n";
        assert!(run("perfbench/benches/main.rs", src).is_empty());
        assert_eq!(run("crates/netsim/src/sim.rs", src).len(), 2);
    }

    #[test]
    fn threads_and_atomics_are_confined_to_the_sweep_runner() {
        let src = "use std::thread;\nuse std::sync::atomic::{AtomicUsize, Ordering};\n";
        assert!(run("crates/bench/src/sweep.rs", src).is_empty());
        let found = run("crates/bench/src/stats.rs", src);
        assert_eq!(found.iter().filter(|f| f.rule == "no-thread-outside-sweep").count(), 3);
    }

    #[test]
    fn literal_seeds_are_flagged_outside_tests() {
        let src = "pub fn f(sim: &mut Sim, rng: &mut SimRng) {\n\
                   \x20   let a = SimRng::new(42);\n\
                   \x20   let b = rng.split(0xBEEF);\n\
                   \x20   let c = sim.split_rng(7);\n}\n";
        let found = run("crates/workload/src/lib.rs", src);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found.iter().all(|f| f.rule == "seed-discipline"));
        assert!(found[1].message.contains("0xBEEF"));
    }

    #[test]
    fn named_seed_constants_and_runtime_seeds_are_legal() {
        let src = "pub fn f(sim: &mut Sim, rng: &mut SimRng, seed: u64) {\n\
                   \x20   let a = SimRng::new(BOOT_SEED);\n\
                   \x20   let b = rng.split(Self::RANK_STREAM);\n\
                   \x20   let c = sim.split_rng(seed);\n}\n";
        assert!(run("crates/workload/src/lib.rs", src).is_empty());
    }

    #[test]
    fn misnamed_seed_constants_are_flagged() {
        let src = "pub fn f(rng: &mut SimRng) -> SimRng {\n    rng.split(LANE_COUNT)\n}\n";
        let found = run("crates/workload/src/lib.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("seed-discipline", 2));
        assert!(found[0].message.contains("LANE_COUNT"));
    }

    #[test]
    fn string_splits_and_test_seeds_do_not_trip_seed_discipline() {
        let strings = "pub fn f(s: &str) -> Option<&str> {\n    s.split(\"::\").next()\n}\n";
        assert!(run("crates/workload/src/lib.rs", strings).is_empty());
        let test_code = "fn mk() -> SimRng { SimRng::new(7) }\n";
        assert!(run("crates/workload/tests/seeds.rs", test_code).is_empty());
        let unit = "#[cfg(test)]\nmod tests {\n    fn mk() -> SimRng { SimRng::new(7) }\n}\n";
        assert!(run("crates/workload/src/lib.rs", unit).is_empty());
    }

    #[test]
    fn allows_suppress_mark_used_and_surface_when_unused_or_malformed() {
        let src = "// simlint::allow(no-wall-clock): calibrates against the host once\n\
                   fn f() { Instant::now(); }\n\
                   // simlint::allow(no-wall-clock): nothing here\n\
                   fn g() {}\n\
                   // simlint::allow(no-wall-clock)\n\
                   fn h() { Instant::now(); } // a missing reason does not suppress\n\
                   // simlint::allow(not-a-rule): whatever\n";
        let found = run("crates/doh/src/zone.rs", src);
        let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            vec!["unused-allow", "allow-syntax", "no-wall-clock", "allow-syntax"],
            "{found:?}"
        );
    }

    fn multi_run(files: &[(&str, &str)]) -> Vec<Finding> {
        crate::lint_files(files.iter().map(|(r, s)| (r.to_string(), s.to_string())).collect())
    }

    #[test]
    fn direct_wakes_outside_the_driver_are_flagged() {
        let src = "pub fn on_wake(sim: &mut Sim) {\n    sim.schedule_app(5, 1);\n}\n";
        let found = run("crates/doh/src/doh2.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("wake-via-driver", 2));
        assert!(run("crates/doh/src/driver.rs", src).is_empty(), "the driver file is blessed");
        assert!(run("crates/netsim/src/sim.rs", src).is_empty(), "only doh code is scoped");
    }

    /// An endpoint that reaches a wake through a helper chain
    /// (`on_wake` → `util::rearm` → private `again` → `sim.next_wake()`)
    /// is caught by the one direct call at the end of the chain: the
    /// helpers are doh code too, so the line check sees them.
    #[test]
    fn transitive_wakes_are_flagged_at_the_reaching_call() {
        let endpoint = "use crate::util::rearm;\n\
                        pub fn on_wake(sim: &mut Sim) {\n    rearm(sim);\n}\n";
        let util = "pub fn rearm(sim: &mut Sim) {\n    again(sim);\n}\n\
                    fn again(sim: &mut Sim) {\n    sim.next_wake();\n}\n";
        let found =
            multi_run(&[("crates/doh/src/doh2.rs", endpoint), ("crates/doh/src/util.rs", util)]);
        assert_eq!(found.len(), 1, "{found:?}");
        let f = &found[0];
        assert_eq!(
            (f.rule, f.file.as_str(), f.line),
            ("wake-via-driver", "crates/doh/src/util.rs", 5)
        );

        assert!(run("crates/doh/src/driver.rs", util).is_empty(), "the driver file is blessed");
        let unit = format!("#[cfg(test)]\nmod tests {{\n{util}}}\n");
        assert!(run("crates/doh/src/util.rs", &unit).is_empty(), "test pumps are exempt");
    }

    #[test]
    fn wake_rule_matches_whole_call_tokens_in_the_code_channel() {
        let src = "/// Like `sim.next_wake()`, but routed.\n\
                   pub fn f(sim: &mut Sim) {\n    \
                   schedule_app_inner(sim); // not sim.schedule_app(1, 2)\n    \
                   let next_wake = 3;\n}\n";
        assert!(run("crates/doh/src/util.rs", src).is_empty());
    }

    #[test]
    fn calls_into_driver_pump_helpers_stay_legal() {
        let endpoint = "use crate::driver::drain_routed;\n\
                        pub fn pump(sim: &mut Sim) {\n    drain_routed(sim);\n}\n";
        let driver = "pub fn drain_routed(sim: &mut Sim) {\n    sim.next_wake_owned();\n}\n";
        let found =
            multi_run(&[("crates/doh/src/lib.rs", endpoint), ("crates/doh/src/driver.rs", driver)]);
        assert!(
            found.iter().all(|f| f.rule != "wake-via-driver"),
            "driver items must not taint their callers: {found:?}"
        );
    }

    #[test]
    fn float_accumulation_is_confined_to_blessed_helpers() {
        let rogue = "pub fn rogue(xs: &[f64]) -> f64 {\n    let mut t = 0.0;\n    \
                     for x in xs {\n        t += x;\n    }\n    t\n}\n";
        let src = format!(
            "pub fn mean(xs: &[f64]) -> f64 {{\n    \
             // simlint::allow(no-float-accumulation): slice order, left to right\n    \
             xs.iter().sum::<f64>() / 2.0\n}}\n{rogue}"
        );
        let found = run("crates/bench/src/stats.rs", &src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("no-float-accumulation", 8));
        assert!(run("crates/bench/src/sweep.rs", rogue).is_empty(), "only stats/report scoped");
    }

    #[test]
    fn keyed_unstable_sorts_are_flagged_in_report_feeding_crates() {
        let src = "pub fn rows(v: &mut Vec<(u64, u32)>) {\n    \
                   v.sort_unstable_by_key(|r| r.0);\n    v.sort_unstable();\n}\n";
        let found = run("crates/workload/src/lib.rs", src);
        assert_eq!(found.len(), 1, "plain sort_unstable is legal: {found:?}");
        assert_eq!((found[0].rule, found[0].line), ("stable-sort-for-reports", 2));
        assert!(run("crates/netsim/src/sim.rs", src).is_empty(), "netsim is not report-feeding");
    }
}
