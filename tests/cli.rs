//! The CLI refuses a flag its command does not document, naming it, instead
//! of starting with defaults; and `loadgen`'s schedule is the same on every
//! host.

use std::process::Command;

#[test]
fn unknown_flags_are_refused_by_name() {
    for (args, flag) in [
        (&["serve", "--batch", "8"][..], "--batch for serve"),
        (&["serve", "--no-ann"][..], "--no-ann for serve"),
        (&["serve", "--wokers", "8"][..], "--wokers for serve"),
        (&["cluster", "--ann-bits", "8"][..], "--ann-bits for cluster"),
        (&["obs", "dump", "--follow"][..], "--follow for obs dump"),
    ] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_seqge")).args(args).output().expect("seqge runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{args:?}: {stderr}");
    }
}

/// The hot_read schedule `scripts/load_smoke.sh` drives (Cora at scale 0.1
/// has 270 nodes), by its FNV digest: a moved hash means the op mix, the
/// Zipf sampler, the arrival processes or the RNG lanes changed what every
/// seeded load run sends.
#[test]
fn loadgen_dry_run_pins_the_hot_read_schedule() {
    let out = Command::new(env!("CARGO_BIN_EXE_seqge"))
        .args(["loadgen", "--scenario", "hot_read", "--seed", "42", "--connections", "2"])
        .args(["--scale", "0.3", "--nodes", "270", "--dry-run"])
        .output()
        .expect("seqge runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        stdout.contains("540 ops over 2 connections, schedule_hash 620e74f120b176e2"),
        "{stdout}"
    );
}
