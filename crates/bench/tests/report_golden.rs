//! The reports are the contract: every fig/table binary, run through the
//! frozen `--seeds/--threads/--out` CLI, must keep writing the exact bytes
//! pinned here. A refactor of the simulator, the transports or the sweep
//! layer that changes one digest changed what the figures say.
//!
//! To re-pin after an intended change, run the binary with
//! `--seeds 2 --out f` and hash `f` with FNV-1a-64 (the failure message
//! prints the new length and digest).

use std::process::Command;

fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

macro_rules! pinned {
    ($($bin:literal: $len:literal, $digest:literal;)*) => {
        [$(($bin, env!(concat!("CARGO_BIN_EXE_", $bin)), $len, $digest)),*]
    };
}

/// `(binary, path, report bytes, FNV-1a-64)` at `--seeds 2`; identical
/// in debug and release and at any `--threads`.
const PINNED: [(&str, &str, usize, u64); 8] = pinned! {
    "fig1_queries_per_page": 6347, 0xdbd8_a491_0c54_f116;
    "fig2_hol_blocking": 17302, 0xc24c_1f23_78c2_bfa7;
    "fig3_bytes_per_resolution": 12494, 0xd2fb_60d4_8b82_248f;
    "fig4_packets_per_resolution": 5198, 0x1aed_e0c9_e905_0c79;
    "fig5_layer_breakdown": 6729, 0xfef8_17c2_f7a0_7ab1;
    "fig6_pageload": 4599, 0x95e8_3f07_e29f_8218;
    "fig_cache_hit_cost": 23034, 0xce03_edc1_366e_9012;
    "table_workload_stats": 2497, 0xb9fb_413a_4a6c_f8a8;
};

#[test]
fn every_fig_and_table_binary_writes_its_pinned_report() {
    let mut drifted = Vec::new();
    for (bin, exe, len, digest) in PINNED {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{bin}.json"));
        let status = Command::new(exe)
            .args(["--seeds", "2", "--threads", "2", "--out"])
            .arg(&out)
            .status()
            .unwrap_or_else(|e| panic!("{bin} did not start: {e}"));
        assert!(status.success(), "{bin} exited with {status}");
        let report = std::fs::read(&out).unwrap_or_else(|e| panic!("{bin} wrote no report: {e}"));
        let got = (report.len(), fnv1a_64(&report));
        if got != (len, digest) {
            drifted.push(format!(
                "{bin}: {} bytes {:016x}, pinned {len} bytes {digest:016x}",
                got.0, got.1
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "reports drifted from their pinned digests:\n{}",
        drifted.join("\n")
    );
}
