//! The workspace lints itself: `cargo test -p dohmark-simlint` fails if
//! any checked-in source trips a rule. This is the one place simlint runs
//! over the tree — tier-1, so every PR and CI's test job go through it.

use std::path::Path;

use dohmark_simlint::{lint_workspace, render};

#[test]
fn workspace_is_simlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let findings = lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "workspace is not simlint-clean — fix or `simlint::allow` each:\n{}",
        render(&findings)
    );
}
