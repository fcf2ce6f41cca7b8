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
    for (args, stderr) in daemons("fpga-sim", "182") {
        assert!(stderr.contains("no accelerator build for d = 182"), "{args:?}: {stderr}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_seqge"))
        .args(["simulate", "--dim", "64"])
        .output()
        .expect("seqge runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("BRAM  271 (86.86%)"));
}

/// Runs every daemon boot path — ephemeral `serve`, `serve --wal-dir` and
/// `cluster` — on a four-node graph under `backend` at `--dim dim`, each in
/// a fresh directory, and returns each one's arguments and stderr after
/// checking that it exited 1 (an error, not a panic's 101).
fn daemons(backend: &str, dim: &str) -> Vec<(Vec<String>, String)> {
    let dir =
        std::env::temp_dir().join(format!("seqge-cli-{backend}-{dim}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph = dir.join("g.edges");
    std::fs::write(&graph, "# nodes 4\n0 1\n1 2\n2 3\n").expect("graph file");
    let at = |name: &str| dir.join(name).display().to_string();
    let mut seen = Vec::new();
    for boot in [
        vec!["serve"],
        vec!["serve", "--wal-dir", &at("wal")],
        vec!["cluster", "--base-dir", &at("cluster")],
    ] {
        let mut args: Vec<String> = boot.iter().map(|a| a.to_string()).collect();
        let graph = graph.display().to_string();
        args.extend(
            ["--graph", &graph, "--port", "0", "--backend", backend, "--dim", dim]
                .map(String::from),
        );
        let out =
            Command::new(env!("CARGO_BIN_EXE_seqge")).args(&args).output().expect("seqge runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        seen.push((args, stderr));
    }
    let _ = std::fs::remove_dir_all(&dir);
    seen
}

#[test]
fn daemons_refuse_a_zero_dimension_on_both_backends() {
    for backend in ["float", "fpga-sim"] {
        for (args, stderr) in daemons(backend, "0") {
            assert!(stderr.contains("embedding dimension must be positive"), "{args:?}: {stderr}");
        }
    }
}
