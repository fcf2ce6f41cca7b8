//! shardd — one cluster shard as a standalone process.
//!
//! The cluster's child backend spawns one of these per vertex partition;
//! the e2e tests `kill -9` them and let the health loop respawn them.
//! A shard is just a WAL-backed serve engine: this binary is `chaosd`
//! minus fault injection, booting **only** through WAL recovery (the
//! cluster commits the initial store before the first spawn, so cold
//! boot and crash recovery are the same code path).
//!
//! ```text
//! shardd --dir STORE [--dim 8] [--seed 11] [--fsync batch]
//!        [--refresh-every 0] [--addr 127.0.0.1:0] [--backend float]
//! ```
//!
//! The process knows nothing about its siblings — no shard id, no shard
//! count, no peer directory; the partition lives in the router alone.
//!
//! Prints `READY <addr>` on stdout once the listener is up. The training
//! configuration is fixed to [`seqge_cluster::train_cfg`] — every shard,
//! replica, and replay in one cluster must agree on it.

use seqge_backend::BackendKind;
use seqge_cluster::backend_spec;
use seqge_serve::wal::WalConfig;
use seqge_serve::{boot_wal, ready, start_backend, FsyncPolicy, ServeConfig, TrainerConfig};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("shardd: {msg}");
    exit(2);
}

fn main() {
    // Arm the flight recorder before anything else: the e2e suites kill -9
    // this process, and the periodic dump is what survives for forensics.
    seqge_obs::flightrec::configure_from_env("shard");
    let mut dir: Option<PathBuf> = None;
    let mut dim = 8usize;
    let mut seed = 11u64;
    let mut fsync = FsyncPolicy::Batch;
    let mut refresh_every = 0u64;
    let mut addr = "127.0.0.1:0".to_string();
    let mut backend = BackendKind::Float;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| fail(format!("{flag}: missing value")));
        match flag.as_str() {
            "--dir" => dir = Some(PathBuf::from(value())),
            "--dim" => dim = value().parse().unwrap_or_else(|_| fail("--dim: not a number")),
            "--seed" => seed = value().parse().unwrap_or_else(|_| fail("--seed: not a number")),
            "--fsync" => fsync = FsyncPolicy::parse(&value()).unwrap_or_else(|e| fail(e)),
            "--refresh-every" => {
                refresh_every =
                    value().parse().unwrap_or_else(|_| fail("--refresh-every: not a number"))
            }
            "--addr" => addr = value(),
            "--backend" => backend = BackendKind::parse(&value()).unwrap_or_else(|e| fail(e)),
            other => fail(format!("unknown flag `{other}`")),
        }
    }
    let dir = dir.unwrap_or_else(|| fail("--dir is required"));

    let spec = backend_spec(backend, dim, seed);
    let wcfg = WalConfig { dir, fsync };
    let boot = match boot_wal(&wcfg, None, &spec, refresh_every) {
        Ok(b) => b,
        Err(e) => fail(format!("boot: {e}")),
    };
    eprintln!(
        "shardd: recovered gen {} segment {} (replayed {}, skipped {}, torn tail: {})",
        boot.report.gen,
        boot.report.segment,
        boot.report.replayed,
        boot.report.skipped_applied,
        boot.report.torn_tail
    );
    let config = ServeConfig {
        trainer: TrainerConfig { refresh_every, ..TrainerConfig::default() },
        wal: Some(Arc::new(boot.wal)),
        ..ServeConfig::default()
    };
    let handle = match start_backend(&addr, boot.graph, boot.backend, config) {
        Ok(h) => h,
        Err(e) => fail(format!("listen: {e}")),
    };
    ready::announce(handle.addr());
    if let Err(e) = handle.wait() {
        fail(format!("server: {e}"));
    }
    let _ = seqge_obs::flightrec::dump();
}
