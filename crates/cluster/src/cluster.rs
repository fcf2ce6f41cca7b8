//! Cluster assembly: boots the shard plane, the replicas, the health
//! loop, and the router, and tears them down in order.
//!
//! Every shard runs the **same fixed training pipeline**,
//! [`seqge_serve::shard_spec`], bound to one [`BackendKind`] — the router
//! asserts homogeneity, because snapshots, WAL replays and replicas all
//! decode against the backend's own state format.

use crate::partition::shard_subgraph;
use crate::replica::{Replica, ReplicaConfig};
use crate::router::{start_router, ReplicaView, RouterConfig, RouterHandle};
use crate::shard::{publish_incarnation, shard_table, ChildShard, ChildSpec, ShardTable};
use seqge_backend::BackendKind;
use seqge_graph::Graph;
use seqge_serve::wal::{FsyncPolicy, Wal, WalConfig};
use seqge_serve::{shard_spec, start_node, ServeConfig, ServerHandle};
use std::io::{self, ErrorKind};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Replica tail poll interval — the dominant term of the replication lag.
const REPLICA_POLL: Duration = Duration::from_millis(20);

/// How shard engines are hosted.
#[derive(Debug, Clone)]
pub enum Backend {
    /// N engines inside this process (the `seqge cluster` CLI). Cheap,
    /// but a shard cannot die independently.
    InProcess,
    /// One `shardd` child process per shard (the e2e tests: children can
    /// really be SIGKILLed and respawned).
    Child {
        /// Path to the `shardd` binary.
        exe: PathBuf,
    },
}

/// Cluster topology and tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of vertex partitions / serve engines.
    pub shards: usize,
    /// Read replicas per shard (0 or 1).
    pub replicas: usize,
    /// Root directory; shard `s` stores its WAL under `shard-<s>/`.
    pub base_dir: PathBuf,
    /// Embedding dimension.
    pub dim: usize,
    /// Training seed (same on every shard; determinism is per shard).
    pub seed: u64,
    /// WAL fsync policy for every shard.
    pub fsync: FsyncPolicy,
    /// Full-resample cadence forwarded to every engine (0 = never).
    pub refresh_every: u64,
    /// Router front-end bind address.
    pub addr: String,
    /// Router tuning.
    pub router: RouterConfig,
    /// Shard hosting mode.
    pub backend: Backend,
    /// Training backend every shard runs (`float` or `fpga-sim`). Must be
    /// homogeneous across the cluster: the WAL snapshot format is the
    /// backend's own, so a shard recovering under a different backend than
    /// it was committed with refuses to boot.
    pub train_backend: BackendKind,
}

impl ClusterConfig {
    /// A small in-process cluster rooted at `base_dir`.
    pub fn in_process(shards: usize, base_dir: PathBuf, dim: usize, seed: u64) -> ClusterConfig {
        ClusterConfig {
            shards,
            replicas: 0,
            base_dir,
            dim,
            seed,
            fsync: FsyncPolicy::Batch,
            refresh_every: 0,
            addr: "127.0.0.1:0".to_string(),
            router: RouterConfig::default(),
            backend: Backend::InProcess,
            train_backend: BackendKind::Float,
        }
    }

    fn shard_dir(&self, s: usize) -> PathBuf {
        self.base_dir.join(format!("shard-{s}"))
    }
}

/// A running cluster.
pub struct Cluster {
    router: Option<RouterHandle>,
    table: ShardTable,
    inproc: Vec<ServerHandle>,
    children: Arc<Mutex<Vec<ChildShard>>>,
    replicas: Vec<Replica>,
    health_stop: Arc<AtomicBool>,
    health: Option<JoinHandle<()>>,
}

impl Cluster {
    /// Boots every shard (committing a fresh WAL store from `initial`'s
    /// per-shard subgraph where none exists, recovering otherwise), then
    /// the replicas, the health loop (child backend), and the router.
    pub fn start(cfg: &ClusterConfig, initial: &Graph) -> io::Result<Cluster> {
        if cfg.shards == 0 {
            return Err(io::Error::new(ErrorKind::InvalidInput, "need at least one shard"));
        }
        if cfg.replicas > 1 {
            return Err(io::Error::new(ErrorKind::InvalidInput, "at most one replica per shard"));
        }
        let spec = shard_spec(cfg.train_backend, cfg.dim, cfg.seed);
        // Before the first boot's bootstrap below builds a backend from it.
        spec.validate()?;

        // Shard plane.
        let mut inproc = Vec::new();
        let mut children = Vec::new();
        let mut addrs: Vec<SocketAddr> = Vec::new();
        for s in 0..cfg.shards {
            let dir = cfg.shard_dir(s);
            std::fs::create_dir_all(&dir)?;
            let wcfg = WalConfig { dir: dir.clone(), fsync: cfg.fsync };
            // First boot: bootstrap the shard's subgraph and commit the
            // store, then boot through *recovery* regardless of backend.
            // Recovery constructs a fresh trainer over the snapshot — the
            // same construction replicas and post-crash respawns use — so
            // every incarnation of a shard ingests identically from the
            // first event.
            if seqge_serve::wal::read_meta(&dir)?.is_none() {
                let sub = shard_subgraph(initial, s, cfg.shards);
                let mut backend = spec.cold(sub.num_nodes());
                backend.bootstrap(&sub);
                Wal::init(&wcfg, &*backend, &sub)?;
            }
            match &cfg.backend {
                Backend::InProcess => {
                    let scfg =
                        ServeConfig { refresh_every: cfg.refresh_every, ..ServeConfig::default() };
                    let handle = start_node("127.0.0.1:0", &wcfg, None, &spec, scfg)?;
                    addrs.push(handle.addr());
                    inproc.push(handle);
                }
                Backend::Child { exe } => {
                    let spec = ChildSpec {
                        exe: exe.clone(),
                        dir,
                        dim: cfg.dim,
                        seed: cfg.seed,
                        refresh_every: cfg.refresh_every,
                        train_backend: cfg.train_backend,
                    };
                    let (child, addr) = ChildShard::spawn(s, spec)?;
                    addrs.push(addr);
                    children.push(child);
                }
            }
        }
        let table = shard_table(&addrs);

        // Replicas (tail the shard WAL directories this process just
        // booted — works for both backends, the feed is the filesystem).
        let mut replicas = Vec::new();
        let mut views: Vec<Option<ReplicaView>> = Vec::new();
        for s in 0..cfg.shards {
            if cfg.replicas > 0 {
                let rep = Replica::start(
                    &cfg.shard_dir(s),
                    ReplicaConfig {
                        spec: spec.clone(),
                        refresh_every: cfg.refresh_every,
                        poll: REPLICA_POLL,
                    },
                )?;
                views.push(Some(ReplicaView { cell: rep.cell(), applied: rep.applied_counter() }));
                replicas.push(rep);
            } else {
                views.push(None);
            }
        }

        // Health loop: reap and respawn dead children, republishing their
        // new address/epoch so routers reconnect.
        let children = Arc::new(Mutex::new(children));
        let health_stop = Arc::new(AtomicBool::new(false));
        let health = if matches!(cfg.backend, Backend::Child { .. }) {
            let children = children.clone();
            let table = table.clone();
            let stop = health_stop.clone();
            Some(thread::Builder::new().name("seqge-cluster-health".to_string()).spawn(
                move || {
                    while !stop.load(Ordering::SeqCst) {
                        {
                            let mut kids = children.lock().expect("child table poisoned");
                            for kid in kids.iter_mut() {
                                if kid.exited() {
                                    match kid.respawn() {
                                        Ok(addr) => publish_incarnation(&table, kid.id, addr),
                                        Err(_) => {
                                            // Store still unrecoverable (or
                                            // exec failed): stay unhealthy,
                                            // retry next tick.
                                        }
                                    }
                                }
                            }
                        }
                        thread::sleep(Duration::from_millis(100));
                    }
                },
            )?)
        } else {
            None
        };

        let router = start_router(&cfg.addr, table.clone(), views, cfg.router.clone())?;
        Ok(Cluster { router: Some(router), table, inproc, children, replicas, health_stop, health })
    }

    /// The router's front-end address.
    pub fn addr(&self) -> SocketAddr {
        self.router.as_ref().expect("router running").addr()
    }

    /// The live routing table (tests watch epochs/health through it).
    pub fn table(&self) -> ShardTable {
        self.table.clone()
    }

    /// The router's stop flag (signal handlers set it; [`Cluster::wait`]
    /// returns once set).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.router.as_ref().expect("router running").stop_flag()
    }

    /// Direct shard addresses (tests compare against single-node runs).
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        (0..self.table.len()).map(|s| crate::shard::shard_info(&self.table, s).addr).collect()
    }

    /// SIGKILLs child shard `s` (test hook; the health loop will respawn
    /// it). No-op for in-process shards.
    pub fn kill_child(&self, s: usize) {
        let mut kids = self.children.lock().expect("child table poisoned");
        if let Some(kid) = kids.iter_mut().find(|k| k.id == s) {
            kid.kill();
            crate::shard::mark_health(&self.table, s, false);
        }
    }

    /// Blocks until the router's stop flag is set (shutdown command or
    /// signal), then tears the cluster down.
    pub fn wait(mut self) -> io::Result<()> {
        let router = self.router.take().expect("router running");
        let result = router.wait();
        self.teardown()?;
        result
    }

    /// Graceful teardown: router first (no new fan-outs), then health
    /// loop, replicas, and the shard plane.
    pub fn shutdown(mut self) -> io::Result<()> {
        if let Some(router) = self.router.take() {
            router.shutdown()?;
        }
        self.teardown()
    }

    fn teardown(&mut self) -> io::Result<()> {
        self.health_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
        for rep in self.replicas.drain(..) {
            rep.stop();
        }
        for kid in self.children.lock().expect("child table poisoned").iter_mut() {
            kid.kill();
        }
        let mut first_err = None;
        for handle in self.inproc.drain(..) {
            if let Err(e) = handle.shutdown() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.health_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
    }
}
