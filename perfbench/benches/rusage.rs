//! The one-child helper: `perfbench --one-rep <bin> <seeds> <threads> <out>`.
//!
//! Every end-to-end repetition runs in a fresh helper process that spawns
//! exactly one fig child and waits for it. `getrusage(RUSAGE_CHILDREN)`
//! in the helper is therefore that child's peak RSS and CPU time, however
//! repetitions of different workloads interleave in the parent. The
//! helper itself stays tiny (it never reads a report), which matters:
//! Linux seeds a child's peak RSS with its parent's at `exec`.

use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("rusage.rs declares the 64-bit Linux layout of `struct rusage`");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// What one fig child cost, as the helper reports it on its stdout.
#[derive(Debug, Clone, Copy)]
pub struct ChildRun {
    /// Spawn to exit, host seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the child.
    pub cpu_s: f64,
    /// Peak resident set of the child, KiB.
    pub maxrss_kib: u64,
    /// Exit code; -1 when a signal killed the child.
    pub exit_code: i32,
}

/// The helper's `main`: runs the fig child, prints one line
/// `wall_ns cpu_us maxrss_kib exit_code`, exits 0 (3 if it could not spawn).
pub fn helper_main(args: &[String]) -> i32 {
    let [bin, seeds, threads, out] = args else {
        eprintln!("usage: perfbench --one-rep <bin> <seeds> <threads> <out>");
        return 3;
    };
    let started = Instant::now();
    let status = Command::new(bin)
        .args(["--seeds", seeds, "--threads", threads, "--out", out])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    let wall = started.elapsed();
    let status = match status {
        Ok(status) => status,
        Err(e) => {
            eprintln!("spawning {bin}: {e}");
            return 3;
        }
    };
    let mut usage = RUsage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `RUsage` whose layout matches the
    // kernel's `struct rusage` on this target (checked by the cfg above), and
    // `getrusage` writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        eprintln!("getrusage failed");
        return 3;
    }
    let cpu_us =
        (usage.utime.sec + usage.stime.sec) * 1_000_000 + usage.utime.usec + usage.stime.usec;
    println!("{} {} {} {}", wall.as_nanos(), cpu_us, usage.maxrss, status.code().unwrap_or(-1));
    0
}

/// Runs one fig child through a fresh helper process (this executable
/// re-executed with `--one-rep`) and returns what the helper measured.
pub fn run_child(bin: &str, seeds: u64, threads: usize, out: &str) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--one-rep", bin, &seeds.to_string(), &threads.to_string(), out])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the helper: {e}"))?;
    if !output.status.success() {
        return Err(format!("helper for {bin} exited with {}", output.status));
    }
    let line = String::from_utf8_lossy(&output.stdout);
    let fields: Vec<&str> = line.split_whitespace().collect();
    let parsed = match fields.as_slice() {
        [wall_ns, cpu_us, maxrss, code] => wall_ns.parse::<u64>().ok().and_then(|wall_ns| {
            Some(ChildRun {
                wall_s: wall_ns as f64 / 1e9,
                cpu_s: cpu_us.parse::<u64>().ok()? as f64 / 1e6,
                maxrss_kib: maxrss.parse().ok()?,
                exit_code: code.parse().ok()?,
            })
        }),
        _ => None,
    };
    parsed.ok_or_else(|| format!("unreadable helper line {line:?}"))
}
