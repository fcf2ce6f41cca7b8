//! Captures what the run metadata reports about the build: the compiler
//! version and, when the checkout is a git repository, its commit.

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).lines().next()?.trim().to_string())
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    // A path that does not exist would re-run this script on every build.
    if std::path::Path::new("../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = first_line(Command::new(rustc).arg("--version"));
    let commit = first_line(Command::new("git").args(["rev-parse", "--short", "HEAD"]));
    println!("cargo:rustc-env=BENCH_RUSTC={}", version.as_deref().unwrap_or("unknown"));
    println!("cargo:rustc-env=BENCH_COMMIT={}", commit.as_deref().unwrap_or("unknown"));
}
