//! The test profile keeps every check on.
//!
//! `cargo test` builds at `opt-level = 1` (see the root `Cargo.toml`) so the
//! suite runs at a tenth of its debug time; this pins that debug assertions
//! and overflow checks stayed on while it did. `cargo test --release` builds
//! with the release profile, where both are off by design, so the checks
//! below apply to a test binary built into a `debug` profile directory.

use std::hint::black_box;
use std::path::Path;

/// Whether this test binary was built by `cargo test` without `--release`:
/// the test profile writes into `<target>/debug/deps`.
fn built_by_the_test_profile() -> bool {
    let exe = std::env::current_exe().expect("the test binary's path");
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .and_then(Path::file_name);
    profile_dir.is_some_and(|dir| dir == "debug")
}

#[test]
fn the_test_profile_keeps_debug_assertions_and_overflow_checks() {
    if !built_by_the_test_profile() {
        return;
    }
    let overflowed = std::panic::catch_unwind(|| black_box(u8::MAX) + black_box(1u8));
    let checks = (cfg!(debug_assertions), overflowed.is_err());
    assert_eq!(checks, (true, true), "(debug assertions, overflow checks)");
}
