//@ path: crates/doh/src/fixture_allows.rs
//! Golden fixture: the allow mechanism polices itself — an allow that
//! suppresses nothing, lacks a reason, or names an unknown rule is a
//! finding in its own right (and a reasonless allow suppresses nothing).

// simlint::allow(no-wall-clock): stale — the wall-clock call below was removed long ago
pub fn nothing_to_suppress() {}

pub fn reasonless_allow_does_not_suppress() -> std::time::Instant {
    // simlint::allow(no-wall-clock)
    std::time::Instant::now()
}

// simlint::allow(no-flux-capacitor): not a rule the catalog knows
pub fn unknown_rule() {}
