//! Minimal shared CLI parsing for the figure binaries.
//!
//! Every fig harness accepts the same three flags instead of hardcoding
//! per-binary seed counts:
//!
//! ```text
//! --seeds N     seeds 1..=N per cell      (default: per-binary)
//! --threads N   sweep worker threads      (default: 1)
//! --out PATH    write the report to PATH  (default: stdout)
//! ```
//!
//! Parsing is hand-rolled (the workspace takes no external crates):
//! [`SweepArgs::from_env`] reads `std::env::args`, printing usage and
//! exiting on `--help` or a malformed flag; [`SweepArgs::parse`] is the
//! testable core. [`SweepArgs::run`] and [`SweepArgs::emit`] are where a
//! failed sweep or an unwritable `--out` path becomes a message on stderr
//! and exit status 1.

use crate::sweep::{SweepReport, SweepSpec};

/// Parsed sweep options shared by every figure binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepArgs {
    /// Seeds per cell; the sweep runs seeds `1..=seeds`.
    pub seeds: u64,
    /// Worker threads for the sweep runner (wall-clock only — reports
    /// are byte-identical across thread counts).
    pub threads: usize,
    /// Report destination; `None` prints to stdout.
    pub out: Option<String>,
}

impl SweepArgs {
    /// The defaults a binary starts from: `seeds` per cell, one thread,
    /// stdout.
    pub(crate) fn defaults(seeds: u64) -> SweepArgs {
        SweepArgs { seeds, threads: 1, out: None }
    }

    /// Parses flags over these defaults. Returns `Err(message)` on an
    /// unknown flag, a missing value, or a malformed number; `--help` is
    /// reported as an error carrying the usage text.
    pub(crate) fn parse(
        mut self,
        args: impl IntoIterator<Item = String>,
    ) -> Result<SweepArgs, String> {
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value =
                |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
            match flag.as_str() {
                "--seeds" => {
                    self.seeds = value("--seeds")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seeds: {e}\n{USAGE}"))?;
                    if self.seeds == 0 {
                        return Err(format!("--seeds must be at least 1\n{USAGE}"));
                    }
                }
                "--threads" => {
                    self.threads = value("--threads")?
                        .parse::<usize>()
                        .map_err(|e| format!("--threads: {e}\n{USAGE}"))?
                        .max(1);
                }
                "--out" => self.out = Some(value("--out")?),
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        Ok(self)
    }

    /// Parses the process arguments over these defaults, printing usage
    /// and exiting on `--help` (status 0) or any parse error (status 2).
    #[expect(
        clippy::print_stdout,
        reason = "the fig binaries' shared CLI front-end: usage is their stdout"
    )]
    pub fn from_env(default_seeds: u64) -> SweepArgs {
        match SweepArgs::defaults(default_seeds).parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(message) if message == USAGE => {
                println!("{message}");
                std::process::exit(0);
            }
            Err(message) => fail(&message, 2),
        }
    }

    /// Runs `spec` over seeds `1..=seeds` on `threads` workers. A failed
    /// run is reported on stderr and exits with status 1: a report either
    /// is complete or is not written.
    pub fn run(&self, spec: SweepSpec) -> SweepReport {
        spec.seeds(1..=self.seeds).threads(self.threads).run().unwrap_or_else(|e| fail(&e, 1))
    }

    /// Emits a rendered report: to `--out`'s path (with a trailing
    /// newline) when given, to stdout otherwise. An unwritable path is
    /// reported on stderr and exits with status 1.
    pub fn emit(&self, doc: &str) {
        match &self.out {
            Some(path) => std::fs::write(path, format!("{doc}\n"))
                .unwrap_or_else(|e| fail(&format_args!("writing {path}: {e}"), 1)),
            #[expect(
                clippy::print_stdout,
                reason = "the report on stdout is this helper's contract"
            )]
            None => println!("{doc}"),
        }
    }
}

/// The fig binaries' one failure exit: `message` on stderr, then `status`
/// (2 for a usage error, 1 for a run that could not produce its report).
#[expect(clippy::print_stderr, reason = "errors go to the invoking fig binary's stderr")]
fn fail(message: &dyn std::fmt::Display, status: i32) -> ! {
    eprintln!("{message}");
    std::process::exit(status);
}

/// Usage text shared by every binary.
const USAGE: &str = "usage: <fig binary> [--seeds N] [--threads N] [--out PATH]";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::defaults(10).parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn defaults_pass_through() {
        assert_eq!(parse(&[]).unwrap(), SweepArgs { seeds: 10, threads: 1, out: None });
    }

    #[test]
    fn flags_override_defaults_in_any_order() {
        let args = parse(&["--threads", "4", "--out", "report.json", "--seeds", "40"]).unwrap();
        assert_eq!(args, SweepArgs { seeds: 40, threads: 4, out: Some("report.json".to_string()) });
    }

    #[test]
    fn zero_threads_clamp_to_one_but_zero_seeds_error() {
        assert_eq!(parse(&["--threads", "0"]).unwrap().threads, 1);
        assert!(parse(&["--seeds", "0"]).is_err());
    }

    #[test]
    fn malformed_input_is_rejected_with_usage() {
        for bad in [vec!["--seeds"], vec!["--seeds", "many"], vec!["--frobnicate"], vec!["--help"]]
        {
            let err = parse(&bad).unwrap_err();
            assert!(err.contains("usage:"), "{bad:?} -> {err}");
        }
    }
}
