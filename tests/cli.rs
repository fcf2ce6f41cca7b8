//! The CLI refuses a flag its command does not document, naming it, instead
//! of starting with defaults.

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

#[test]
fn simulate_refuses_a_dimension_without_a_build() {
    // 2^32 + 32 would read as d = 32 through a truncating `as u32`.
    for dim in ["0", "4294967328"] {
        let out = Command::new(env!("CARGO_BIN_EXE_seqge"))
            .args(["simulate", "--dim", dim])
            .output()
            .expect("seqge runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--dim {dim}: {stderr}");
        assert!(stderr.contains(&format!("no accelerator build for d = {dim}")), "{stderr}");
    }
    // A daemon on the fpga-sim backend refuses it before it boots.
    for cmd in ["serve", "cluster"] {
        let out = Command::new(env!("CARGO_BIN_EXE_seqge"))
            .args([cmd, "--backend", "fpga-sim", "--dim", "182"])
            .output()
            .expect("seqge runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(stderr.contains("no accelerator build for d = 182"), "{cmd}: {stderr}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_seqge"))
        .args(["simulate", "--dim", "64"])
        .output()
        .expect("seqge runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("BRAM  271 (86.86%)"));
}
