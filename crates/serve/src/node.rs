//! A durable node is a [`WalConfig`] plus a [`BackendSpec`]; this is the one
//! way to boot one.
//!
//! `seqge serve --wal-dir`, the in-process cluster shards and both test
//! daemons (`chaosd`, `shardd`) all go through [`start_node`], so the
//! refresh cadence is named once and log replay and the live trainer cannot
//! disagree on it, and every node honours `SEQGE_FAULT` the same way.

use crate::fault::FaultInjector;
use crate::server::{boot_wal, start_backend, ServeConfig, ServerHandle};
use crate::wal::{FsyncPolicy, WalConfig};
use seqge_backend::{BackendKind, BackendSpec};
use seqge_core::{OsElmConfig, TrainConfig};
use seqge_graph::Graph;
use seqge_sampling::UpdatePolicy;
use std::io::{self, ErrorKind};
use std::path::PathBuf;
use std::sync::Arc;

/// Boots the store in `wcfg` (recovering a committed one, else committing a
/// fresh one from `cold_graph`) and serves it on `addr`. `config.wal` and
/// `config.fault` are overwritten: the log is the one just opened, the
/// fault schedule comes from `SEQGE_FAULT` (disabled when unset).
pub fn start_node(
    addr: &str,
    wcfg: &WalConfig,
    cold_graph: Option<Graph>,
    spec: &BackendSpec,
    mut config: ServeConfig,
) -> io::Result<ServerHandle> {
    let fault =
        FaultInjector::from_env().map_err(|e| io::Error::new(ErrorKind::InvalidInput, e))?;
    let boot = boot_wal(wcfg, cold_graph, spec, config.refresh_every)?;
    seqge_obs::info!(
        "serve",
        "wal boot ({}): gen {} segment {}, {} replayed, {} skipped, torn tail: {}",
        spec.kind.boot_label(),
        boot.report.gen,
        boot.report.segment,
        boot.report.replayed,
        boot.report.skipped_applied,
        boot.report.torn_tail
    );
    config.wal = Some(Arc::new(boot.wal));
    config.fault = Arc::new(fault);
    start_backend(addr, boot.graph, boot.backend, config)
}

/// The fixed training pipeline every cluster shard, replica and test daemon
/// runs: paper defaults at `dim` with `walk_length 12, walks_per_node 2` and
/// the every-edge update policy. It is not tunable because a shard that
/// drifted from its replica, or from its own pre-crash incarnation, would
/// break the bit-identity the WAL provides.
pub fn shard_spec(kind: BackendKind, dim: usize, seed: u64) -> BackendSpec {
    let mut train = TrainConfig::paper_defaults(dim);
    train.walk.walk_length = 12;
    train.walk.walks_per_node = 2;
    let oselm = OsElmConfig { model: train.model, ..OsElmConfig::paper_defaults(dim) };
    BackendSpec::new(kind, train, oselm, UpdatePolicy::every_edge(), seed)
}

/// The whole of a shard daemon (`chaosd`, `shardd`): serves a committed
/// [`shard_spec`] store until killed, with the flight recorder armed from
/// `SEQGE_FLIGHTREC` — the suites kill -9 these processes and the periodic
/// dump is what survives.
///
/// ```text
/// <name> --dir STORE [--dim 8] [--seed 11] [--fsync batch]
///        [--refresh-every 0] [--addr 127.0.0.1:0] [--backend float]
/// ```
///
/// Prints `READY <addr>` on stdout once the listener is up; exits 2 with a
/// message on stderr on any boot failure.
pub fn daemon_main(name: &str) {
    if let Err(e) = run_daemon(name) {
        eprintln!("{name}: {e}");
        std::process::exit(2);
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: not a number"))
}

fn run_daemon(name: &str) -> Result<(), String> {
    seqge_obs::flightrec::configure_from_env(name);
    let mut dir: Option<PathBuf> = None;
    let (mut dim, mut seed, mut refresh_every) = (8usize, 11u64, 0u64);
    let mut fsync = FsyncPolicy::Batch;
    let mut addr = "127.0.0.1:0".to_string();
    let mut backend = BackendKind::Float;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--dir" => dir = Some(PathBuf::from(value)),
            "--dim" => dim = number(&flag, &value)?,
            "--seed" => seed = number(&flag, &value)?,
            "--fsync" => fsync = FsyncPolicy::parse(&value)?,
            "--refresh-every" => refresh_every = number(&flag, &value)?,
            "--addr" => addr = value,
            "--backend" => backend = BackendKind::parse(&value)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let wcfg = WalConfig { dir: dir.ok_or("--dir is required")?, fsync };
    let config = ServeConfig { refresh_every, ..ServeConfig::default() };
    let handle = start_node(&addr, &wcfg, None, &shard_spec(backend, dim, seed), config)
        .map_err(|e| format!("boot: {e}"))?;
    crate::ready::announce(handle.addr());
    handle.wait().map_err(|e| format!("server: {e}"))?;
    let _ = seqge_obs::flightrec::dump();
    Ok(())
}
