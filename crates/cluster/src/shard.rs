//! The shard plane: one serve engine per vertex partition.
//!
//! A shard is a full `seqge-serve` instance — its own WAL directory, its
//! own trainer thread, its own snapshot cell — owning the vertex slice
//! `{v : v % shards == id}` (see [`crate::partition`]). Shards run either
//! **in-process** (the `seqge cluster` CLI: one process, N engines) or as
//! **spawned children** of the `shardd` binary (the e2e tests, which need
//! processes they can really `kill -9`).
//!
//! The router never talks to a shard object directly; it reads the shared
//! [`ShardInfo`] table for the current address/epoch and dials TCP. The
//! epoch increments on every (re)spawn, so routers know to drop cached
//! connections to a dead incarnation even when the new one reuses the
//! address.

use seqge_backend::BackendKind;
use seqge_serve::ready;
use std::io::{self};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};

/// Where the router finds one shard right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// Current listen address (changes across child respawns: port 0).
    pub addr: SocketAddr,
    /// Incarnation counter; bumped on every (re)spawn so cached router
    /// connections to a previous incarnation are discarded.
    pub epoch: u64,
    /// Cleared by the router on send/receive failure, restored by the
    /// health loop once the shard answers again.
    pub healthy: bool,
}

/// The live routing table: one slot per shard, shared between the router
/// workers (readers + health markers) and the health loop (writer).
pub type ShardTable = Arc<Vec<Mutex<ShardInfo>>>;

/// Builds a table with every shard initially healthy at `addrs`.
pub fn shard_table(addrs: &[SocketAddr]) -> ShardTable {
    Arc::new(
        addrs.iter().map(|&addr| Mutex::new(ShardInfo { addr, epoch: 1, healthy: true })).collect(),
    )
}

/// Reads one slot (copy; the lock is held only for the read).
pub fn shard_info(table: &ShardTable, s: usize) -> ShardInfo {
    *table[s].lock().expect("shard table poisoned")
}

/// Marks a shard unhealthy (router-side failure observation).
pub fn mark_unhealthy(table: &ShardTable, s: usize) {
    table[s].lock().expect("shard table poisoned").healthy = false;
}

/// Publishes a new incarnation of shard `s`.
pub fn publish_incarnation(table: &ShardTable, s: usize, addr: SocketAddr) {
    let mut slot = table[s].lock().expect("shard table poisoned");
    slot.addr = addr;
    slot.epoch += 1;
    slot.healthy = true;
}

/// How to (re)launch one child shard: the `shardd` invocation minus the
/// ephemeral parts. Respawning runs the identical command line; recovery
/// comes from the shard's WAL directory, not from process state.
#[derive(Debug, Clone)]
pub struct ChildSpec {
    /// Path to the `shardd` binary.
    pub exe: PathBuf,
    /// The shard's WAL directory.
    pub dir: PathBuf,
    /// Embedding dimension (must match across restarts).
    pub dim: usize,
    /// Training seed (must match across restarts).
    pub seed: u64,
    /// Full-resample cadence forwarded to the engine.
    pub refresh_every: u64,
    /// Training backend the child runs (must match across restarts: the
    /// committed snapshot is in the backend's own format).
    pub train_backend: BackendKind,
}

impl ChildSpec {
    fn command(&self) -> Command {
        let mut cmd = Command::new(&self.exe);
        cmd.args(["--dir", &self.dir.display().to_string()])
            .args(["--dim", &self.dim.to_string()])
            .args(["--seed", &self.seed.to_string()])
            .args(["--refresh-every", &self.refresh_every.to_string()])
            .args(["--backend", self.train_backend.as_str()])
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        cmd
    }

    /// Spawns the child and waits for its `READY <addr>` banner.
    pub fn spawn(&self) -> io::Result<(Child, SocketAddr)> {
        let mut child = self.command().spawn()?;
        match ready::await_ready(&mut child) {
            Ok(addr) => Ok((child, addr)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "shardd at {} died before READY: {e}",
                    self.dir.display()
                )))
            }
        }
    }
}

/// One running child shard with kill-on-drop (a failing test must not
/// leak daemons).
#[derive(Debug)]
pub struct ChildShard {
    /// The shard index this child serves.
    pub id: usize,
    /// Respawn recipe.
    pub spec: ChildSpec,
    child: Child,
}

impl ChildShard {
    /// Spawns shard `id` from `spec`.
    pub fn spawn(id: usize, spec: ChildSpec) -> io::Result<(ChildShard, SocketAddr)> {
        let (child, addr) = spec.spawn()?;
        Ok((ChildShard { id, spec, child }, addr))
    }

    /// Non-blocking liveness check: `Some(())` if the process has exited.
    pub fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    /// Replaces a dead child with a fresh incarnation (WAL recovery
    /// happens inside the new process before it prints READY).
    pub fn respawn(&mut self) -> io::Result<SocketAddr> {
        let _ = self.child.wait(); // reap the corpse
        let (child, addr) = self.spec.spawn()?;
        self.child = child;
        Ok(addr)
    }

    /// SIGKILL, for tests and teardown.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildShard {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_epoch_and_health_transitions() {
        let a1: SocketAddr = "127.0.0.1:4001".parse().unwrap();
        let a2: SocketAddr = "127.0.0.1:4002".parse().unwrap();
        let table = shard_table(&[a1]);
        assert_eq!(shard_info(&table, 0), ShardInfo { addr: a1, epoch: 1, healthy: true });
        mark_unhealthy(&table, 0);
        assert!(!shard_info(&table, 0).healthy);
        publish_incarnation(&table, 0, a2);
        assert_eq!(shard_info(&table, 0), ShardInfo { addr: a2, epoch: 2, healthy: true });
    }
}
