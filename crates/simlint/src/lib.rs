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
//! scrubbed lines, one file at a time — there is no parser, no item model
//! and no cross-file pass. Findings print as `file:line rule message`;
//! the `dohmark-simlint` binary exits non-zero under `--deny` when any
//! survive, which is how CI consumes it. `--format github` re-renders the
//! same findings as workflow annotations ([`render_github`]).
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

pub mod lexer;
pub mod output;
pub mod rules;

pub use output::render_github;
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
    lint_files(vec![(rel.to_string(), source.to_string())], 0)
}

/// The full lint pipeline over a set of `(rel, source)` files: scrub
/// each file, run every rule of [`RULES`] over it, resolve suppression.
/// `landed_pr` is the highest PR known to have landed (0 when unknown);
/// a file's `//@ landed-pr: <n>` directive can only raise it.
/// Findings come back sorted by path, then line, then rule.
pub fn lint_files(files: Vec<(String, String)>, landed_pr: u32) -> Vec<Finding> {
    let pinned = files.iter().filter_map(|(_, s)| directive(s, "landed-pr:")?.parse().ok());
    let landed_pr = pinned.fold(landed_pr, u32::max);
    let mut findings = Vec::new();
    for (rel, source) in files {
        let rel = directive(&source, "path:").map_or(rel, str::to_string);
        let view = FileView { rel, lines: lexer::scrub(&source), landed_pr };
        let mut sink = Sink::new(&view);
        for rule in RULES {
            (rule.check)(&view, &mut sink);
        }
        findings.extend(sink.finish());
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

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` has a `[workspace]` table with a `members` key. A
/// member-less table (`perfbench/`'s, there to keep the package out of
/// the root build) is a package opting out of a workspace, not the tree
/// to lint, so the walk continues past it.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) {
            let table = manifest.lines().map(str::trim).skip_while(|l| *l != "[workspace]").skip(1);
            if table.take_while(|l| !l.starts_with('[')).any(|l| l.starts_with("members")) {
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
        };
        assert_eq!(render(&[f]), "crates/doh/src/dot.rs:7 no-wall-clock boom\n");
    }

    #[test]
    fn a_member_less_workspace_table_is_not_the_root() {
        let root = std::env::temp_dir().join(format!("simlint-root-{}", std::process::id()));
        let nested = root.join("perfbench/benches");
        fs::create_dir_all(&nested).expect("create temp tree");
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nresolver = \"2\"\nmembers = [\"crates/*\"]\n",
        )
        .expect("write root manifest");
        fs::write(
            root.join("perfbench/Cargo.toml"),
            "# an empty [workspace] table\n[workspace]\n\n[package]\nname = \"perfbench\"\n",
        )
        .expect("write nested manifest");
        let found = find_workspace_root(&nested);
        fs::remove_dir_all(&root).expect("remove temp tree");
        assert_eq!(found, Some(root));
    }
}
