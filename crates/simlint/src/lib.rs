//! `simlint` — static determinism lints for the dohmark workspace.
//!
//! The workspace's load-bearing guarantee is bit-for-bit determinism:
//! [`SweepSpec`](../dohmark_bench/sweep) promises byte-identical reports
//! at any thread count, and the fleet-scale tests pin thousand-client
//! runs to exact bytes. Runtime tests defend the guarantee after the
//! fact; simlint rejects the *ingredients* of nondeterminism — wall
//! clocks, stray threads, unnamed seeds — at lint time, before they can
//! reach wake ordering or report bytes.
//!
//! # How it works
//!
//! [`lexer`] scrubs each `.rs` file into per-line code/comment channels
//! (comment-, string-literal- and `#[cfg(test)]`-aware, via brace
//! tracking), and [`rules`] runs the table-driven catalog over the
//! scrubbed lines, one file at a time — there is no parser, no item model
//! and no cross-file pass. Findings print as `file:line rule message`.
//!
//! There is one way to run it and it has no options: `cargo test -p
//! dohmark-simlint`. `tests/self_check.rs` lints the whole workspace
//! ([`lint_workspace`]) and fails on any finding; `tests/golden.rs` pins
//! each rule's findings on a fixture corpus. What clippy can name is not
//! here: print and unwrap hygiene is `clippy::print_stdout` /
//! `print_stderr` / `unwrap_used`, declared at the library crate roots,
//! and hash-order nondeterminism is designed out — `clippy.toml` bans
//! `HashMap` and `HashSet` as `disallowed-types`, so every keyed table
//! is a `BTreeMap` / `BTreeSet`.
//!
//! # Suppression
//!
//! Every rule honours a scoped allow on the finding's line or the line
//! directly above, with a mandatory reason:
//!
//! ```text
//! // simlint::allow(no-wall-clock): progress line only, never reaches a report
//! let started = Instant::now();
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
//! `crates/simlint/tests/fixtures/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

pub use rules::{Finding, Rule, RULES};

use rules::{FileView, Sink};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never walked: build output, VCS metadata, and the golden
/// fixture corpus (which is *intentionally* full of findings).
const SKIP_DIRS: &[&str] = &["target", ".git"];

/// The golden fixture corpus, workspace-relative: excluded from
/// [`lint_workspace`] (it is *intentionally* full of findings).
const FIXTURES_DIR: &str = "crates/simlint/tests/fixtures";

/// Lints one source text as workspace-relative path `rel`. A leading
/// `//@ path: <p>` directive overrides `rel` (the golden-fixture hook).
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    lint_files(vec![(rel.to_string(), source.to_string())])
}

/// The full lint pipeline over a set of `(rel, source)` files: scrub
/// each file, run every rule of [`RULES`] over it, resolve suppression.
/// Findings come back sorted by path, then line, then rule.
pub fn lint_files(files: Vec<(String, String)>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (rel, source) in files {
        let rel = path_directive(&source).map_or(rel, str::to_string);
        let view = FileView { rel, lines: lexer::scrub(&source) };
        let mut sink = Sink::new(&view);
        for rule in RULES {
            (rule.check)(&view, &mut sink);
        }
        findings.extend(sink.finish());
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// The value of the `//@ path: …` directive in the first lines of
/// `source`, if any.
fn path_directive(source: &str) -> Option<&str> {
    source.lines().take(3).find_map(|l| l.trim().strip_prefix("//@ path:")).map(str::trim)
}

/// Walks every `.rs` file under `root` (skipping `target/`, `.git/` and
/// the fixture corpus) and lints it. Findings come back sorted by path,
/// then line, then rule — byte-stable across runs and platforms.
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
    Ok(lint_files(inputs))
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
        };
        assert_eq!(render(&[f]), "crates/doh/src/dot.rs:7 no-wall-clock boom\n");
    }
}
