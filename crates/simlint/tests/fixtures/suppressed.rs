//@ path: crates/netsim/src/fixture_suppressed.rs
//! Golden fixture: a well-formed `simlint::allow` (rule + reason) on
//! the finding's line or the line above suppresses it and counts as
//! used. One unsuppressed finding remains so the fixture still guards
//! something.

pub fn calibrated() -> std::time::Instant {
    // simlint::allow(no-wall-clock): fixture — pretend this calibrates the sim clock against the host
    std::time::Instant::now()
}

pub fn same_line_allow() -> std::time::SystemTime {
    std::time::SystemTime::now() // simlint::allow(no-wall-clock): fixture — same-line allows work too
}

pub fn not_suppressed() -> std::time::Instant {
    std::time::Instant::now()
}
