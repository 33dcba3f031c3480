//! `repro` refuses a command line it cannot parse: it names the bad value
//! on stderr and exits with status 2 before it builds a world, instead of
//! running a default in its place.

use std::process::Command;

/// Run `repro` with `args` and `env` set: it must exit 2, naming `named`
/// beside the usage line, before it builds a world and with no report.
fn rejects(args: &[&str], env: &[(&str, &str)], named: &str) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repro"));
    command
        .args(args)
        .env_remove("QUICERT_WORKERS")
        .env_remove("QUICERT_TICKS");
    for (name, value) in env {
        command.env(name, value);
    }
    let output = command.output().expect("repro runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?} {env:?}: {stderr}");
    assert!(stderr.contains(named), "{args:?} {env:?}: {stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(!stderr.contains("generating world"), "{stderr}");
    assert!(output.stdout.is_empty(), "a report was printed");
}

#[test]
fn repro_rejects_what_it_cannot_parse_before_building_a_world() {
    rejects(&["500", "4x2", "1", "--ticks", "x"], &[], "\"x\"");
    rejects(&["500", "4x2", "1"], &[], "\"4x2\"");
    rejects(&["500", "1", "1", "--ticks"], &[], "--ticks");
    rejects(&["500", "1", "1", "extra"], &[], "\"extra\"");
    rejects(&["500"], &[("QUICERT_WORKERS", "two")], "\"two\"");
    rejects(&["500"], &[("QUICERT_TICKS", "-3")], "\"-3\"");
}
