//@ path: crates/doh/src/fake_shims.rs
//@ landed-pr: 11
//! Deprecated shims and their expiry markers: a missing `remove-by`
//! flags at the item, a malformed one flags at the marker, a deadline
//! that has landed is overdue, and a well-formed `remove-by: PR <n>`
//! still in the future passes.

/// Old entry point with no expiry marker at all.
#[deprecated(note = "use the new one")]
pub fn old_no_marker() {}

/// Old entry point. remove-by: next release
#[deprecated(note = "use the new one")]
pub fn old_malformed() {}

/// Old entry point. remove-by: PR 11
#[deprecated(note = "use the new one")]
pub fn old_overdue() {}

/// Old entry point. remove-by: PR 12
#[deprecated(note = "use the new one")]
pub fn old_ok() {}
