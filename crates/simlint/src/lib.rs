//! `simlint` — static determinism & hygiene lints for the dohmark
//! workspace.
//!
//! The workspace's load-bearing guarantee is bit-for-bit determinism:
//! [`SweepSpec`](../dohmark_bench/sweep) promises byte-identical reports
//! at any thread count, and the fleet-scale tests pin thousand-client
//! runs to exact bytes. Runtime tests defend the guarantee after the
//! fact; simlint rejects the *ingredients* of nondeterminism — wall
//! clocks, `HashMap` iteration order, stray threads — at lint time,
//! before they can reach wake ordering or report bytes.
//!
//! # How it works
//!
//! [`lexer`] scrubs each `.rs` file into per-line code/comment channels
//! (comment-, string-literal- and `#[cfg(test)]`-aware, via brace
//! tracking), and [`rules`] runs the table-driven catalog over the
//! scrubbed lines. Findings print as `file:line rule message`; the
//! `dohmark-simlint` binary exits non-zero under `--deny` when any
//! survive, which is how CI consumes it. `--format json` / `--format
//! github` re-render the same findings for machines ([`render_json`],
//! [`render_github`]).
//!
//! # The item model
//!
//! Lexical rules see *lines*; the v2 rules need to see *items*. The
//! [`items`] module recovers, per file, the module path implied by the
//! file's workspace location, the `use`-alias map, and every
//! `fn`/`impl`/`trait`/`mod` span by brace tracking over scrubbed code
//! (string and comment braces are already blanked, so depth never
//! desyncs); each function's body is then mined for `ident(` /
//! `path::ident(` / `.method(` call shapes. A workspace pass joins all
//! files into a callable index (`doh::driver::schedule_endpoint_timer` →
//! item), on which calls resolve: same-impl method, then same-module free
//! function, then alias-expanded path with `crate::`/`self::`
//! normalised, then a unique `::`-suffix match. This is deliberately
//! *not* a parser — generics are skipped, macros are opaque, and an
//! unresolvable call simply doesn't propagate — but it is exact enough
//! to answer "can this endpoint reach `Sim::schedule_app` without going
//! through the `Driver`?", which no per-line regex can. Workspace rules
//! ([`rules::Check::Workspace`]) get the whole model plus one sink per
//! file, so cross-file findings still honour file-local allows, and
//! every finding is attributed to its enclosing item path (the `item`
//! field of the JSON schema).
//!
//! # Suppression
//!
//! Every rule honours a scoped allow on the finding's line or the line
//! directly above, with a mandatory reason:
//!
//! ```text
//! // simlint::allow(no-print-in-lib): the CLI front-end owns stdout
//! println!("{doc}");
//! ```
//!
//! Unused or malformed allows are findings themselves (`unused-allow`,
//! `allow-syntax`), so suppressions cannot outlive the code they excuse.
//!
//! # Testing hook
//!
//! A fixture can pin the workspace-relative path it is linted *as* with
//! a leading `//@ path: crates/netsim/src/fake.rs` directive — that is
//! how the golden corpus exercises path-scoped rules from inside
//! `crates/simlint/tests/fixtures/`. Likewise `//@ landed-pr: 11` pins
//! the PR number `shim-expiry` measures deadlines against, which a
//! workspace lint reads from `CHANGES.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod items;
pub mod lexer;
pub mod output;
pub mod rules;

pub use output::{render_github, render_json};
pub use rules::{Finding, Rule, RULES};

use rules::{FileView, Sink};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never walked: build output, VCS metadata, and the golden
/// fixture corpus (which is *intentionally* full of findings).
const SKIP_DIRS: &[&str] = &["target", ".git"];

/// The golden fixture corpus, workspace-relative: excluded from
/// [`lint_workspace`] (it is *intentionally* full of findings) and the
/// target of [`bless_fixtures`] / the CLI's `--bless`.
pub const FIXTURES_DIR: &str = "crates/simlint/tests/fixtures";

/// Lints one source text as workspace-relative path `rel`. A leading
/// `//@ path: <p>` directive overrides `rel` (the golden-fixture hook).
/// Workspace rules run over a one-file workspace, so single-file
/// fixtures can exercise them as long as their call chains stay in-file.
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    lint_files(vec![(rel.to_string(), source.to_string())], 0)
}

/// The full lint pipeline over a set of `(rel, source)` files: scrub
/// every file, build the [`items::Workspace`] model, run the file rules
/// per file and the workspace rules over the joined model, then resolve
/// suppression and attribute each finding to its enclosing item.
/// `landed_pr` is the highest PR known to have landed (0 when unknown);
/// a file's `//@ landed-pr: <n>` directive can only raise it.
/// Findings come back sorted by path, then line, then rule.
pub fn lint_files(files: Vec<(String, String)>, landed_pr: u32) -> Vec<Finding> {
    let pinned = files.iter().filter_map(|(_, s)| directive(s, "landed-pr:")?.parse().ok());
    let landed_pr = pinned.fold(landed_pr, u32::max);
    let views: Vec<FileView> = files
        .into_iter()
        .map(|(rel, source)| {
            let rel = directive(&source, "path:").map_or(rel, str::to_string);
            FileView { rel, lines: lexer::scrub(&source) }
        })
        .collect();
    let mut ws = items::Workspace::build(&views);
    ws.landed_pr = landed_pr;
    let mut sinks: Vec<Sink> = views.iter().map(Sink::new).collect();
    for rule in RULES {
        match rule.check {
            rules::Check::File(f) => {
                for (view, sink) in views.iter().zip(sinks.iter_mut()) {
                    f(view, sink);
                }
            }
            rules::Check::Workspace(f) => f(&ws, &mut sinks),
        }
    }
    let mut findings = Vec::new();
    for (fi, sink) in sinks.into_iter().enumerate() {
        for mut f in sink.finish() {
            f.item = ws.enclosing_path(fi, f.line - 1);
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// The value of the `//@ <key> …` directive in the first lines of
/// `source`, if any.
fn directive<'a>(source: &'a str, key: &str) -> Option<&'a str> {
    source
        .lines()
        .take(3)
        .find_map(|l| l.trim().strip_prefix("//@ ")?.strip_prefix(key))
        .map(str::trim)
}

/// Walks every `.rs` file under `root` (skipping `target/`, `.git/` and
/// the fixture corpus) and lints it. Findings come back sorted by path,
/// then line, then rule — byte-stable across runs and platforms. The
/// highest `PR <n>:` entry of `root`'s `CHANGES.md` is the landed PR.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut inputs = Vec::new();
    for rel in files {
        let source = fs::read_to_string(root.join(&rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        inputs.push((rel, source));
    }
    let changes = fs::read_to_string(root.join("CHANGES.md")).unwrap_or_default();
    let landed =
        changes.lines().filter_map(|l| l.strip_prefix("PR ")?.split(':').next()?.parse().ok());
    Ok(lint_files(inputs, landed.max().unwrap_or(0)))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            if rel.to_string_lossy().replace('\\', "/") == FIXTURES_DIR {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Renders findings in the canonical `file:line rule message` format,
/// one per line.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out
}

/// Re-lints every `.rs` fixture under `dir` and rewrites its sibling
/// `.expected` file with the current findings — the `--bless` workflow
/// for intentional rule changes. Returns `(expected_path, changed)` per
/// fixture, sorted by path. Blessing is idempotent: a second run over an
/// unchanged corpus rewrites nothing (the self-consistency test pins
/// this).
pub fn bless_fixtures(dir: &Path) -> io::Result<Vec<(PathBuf, bool)>> {
    let mut sources: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    sources.sort();
    let mut out = Vec::new();
    for path in sources {
        let source = fs::read_to_string(&path)?;
        let rel = path.file_name().unwrap_or(path.as_os_str()).to_string_lossy();
        let rendered = render(&lint_source(&rel, &source));
        let expected = path.with_extension("expected");
        let changed = fs::read_to_string(&expected).ok().as_deref() != Some(rendered.as_str());
        if changed {
            fs::write(&expected, &rendered)?;
        }
        out.push((expected, changed));
    }
    Ok(out)
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_overrides_the_lint_path() {
        let src = "//@ path: crates/netsim/src/fake.rs\nfn f() { let t = Instant::now(); }\n";
        let found = lint_source("crates/simlint/tests/fixtures/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].file, "crates/netsim/src/fake.rs");
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn render_is_the_canonical_one_line_format() {
        let f = Finding {
            file: "crates/doh/src/dot.rs".into(),
            line: 7,
            rule: "no-wall-clock",
            message: "boom".into(),
            item: "doh::dot".into(),
        };
        assert_eq!(render(&[f]), "crates/doh/src/dot.rs:7 no-wall-clock boom\n");
    }
}
