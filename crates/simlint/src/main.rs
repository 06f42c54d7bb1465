//! `dohmark-simlint` — the CLI over [`dohmark_simlint`].
//!
//! ```text
//! dohmark-simlint [--deny] [--root DIR] [--format text|github]
//!                 [--list-rules] [FILE...]
//! ```
//!
//! With no `FILE` arguments the whole workspace is linted (found by
//! walking up from `--root`, default the current directory, to the
//! nearest manifest whose `[workspace]` table lists `members`). Findings
//! print one per line as `file:line rule message`; `--format github`
//! emits workflow-command annotations for CI.
//! Exit status: 0 when clean, or in warn mode (the default); 1 when
//! `--deny` and findings exist; 2 on usage or I/O errors — the `--deny`
//! form is what CI runs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: dohmark-simlint [--deny] [--root DIR] \
                     [--format text|github] [--list-rules] [FILE...]";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Github,
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root needs a directory"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("github") => format = Format::Github,
                Some(other) => {
                    return usage_error(&format!(
                        "unknown format {other:?} (expected text or github)"
                    ))
                }
                None => return usage_error("--format needs a value"),
            },
            "--list-rules" => {
                for rule in dohmark_simlint::RULES {
                    println!(
                        "{}: {}",
                        rule.name,
                        rule.summary.split_whitespace().collect::<Vec<_>>().join(" ")
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                return usage_error(&format!("unknown flag {flag:?}"));
            }
            file => files.push(PathBuf::from(file)),
        }
    }

    let findings = if files.is_empty() {
        let Some(ws) = resolve_workspace(root) else { return ExitCode::from(2) };
        match dohmark_simlint::lint_workspace(&ws) {
            Ok(findings) => findings,
            Err(e) => return io_error(&ws, &e),
        }
    } else {
        let mut inputs = Vec::new();
        for file in &files {
            let source = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => return io_error(file, &e),
            };
            let rel = file.to_string_lossy().replace('\\', "/");
            inputs.push((rel, source));
        }
        dohmark_simlint::lint_files(inputs, 0)
    };

    match format {
        Format::Text => print!("{}", dohmark_simlint::render(&findings)),
        Format::Github => print!("{}", dohmark_simlint::render_github(&findings)),
    }
    if findings.is_empty() {
        eprintln!("simlint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "simlint: {} finding(s){}",
            findings.len(),
            if deny { "" } else { " (warn mode; --deny for CI)" }
        );
        if deny {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// Resolves the workspace root from `--root` (or the current directory),
/// reporting errors itself.
fn resolve_workspace(root: Option<PathBuf>) -> Option<PathBuf> {
    let start = root.unwrap_or_else(|| PathBuf::from("."));
    let start = match start.canonicalize() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("dohmark-simlint: {}: {e}", start.display());
            return None;
        }
    };
    let ws = dohmark_simlint::find_workspace_root(&start);
    if ws.is_none() {
        eprintln!(
            "dohmark-simlint: no [workspace] manifest with members above {}",
            start.display()
        );
    }
    ws
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("dohmark-simlint: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn io_error(path: &Path, e: &std::io::Error) -> ExitCode {
    eprintln!("dohmark-simlint: {}: {e}", path.display());
    ExitCode::from(2)
}
