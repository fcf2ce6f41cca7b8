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
