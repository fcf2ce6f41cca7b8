//! Read replicas: a warm copy of one shard's embeddings, fed by streaming
//! the shard's WAL.
//!
//! A replica boots from the primary's last *committed* generation
//! (`meta.json` → `model.<g>.sge` + `graph.<g>.edges`) and then tails the
//! active segment with [`seqge_serve::wal::SegmentTailer`], replaying each
//! record through its own [`seqge_backend::TrainBackend`] — the identical
//! construction WAL recovery uses, so a replica that has consumed up to
//! sequence `s` is bit-identical to a primary that has applied up to `s`.
//! The backend kind must match the primary's: the committed snapshot is in
//! the backend's own format, and [`BackendSpec::load`] refuses a mismatch.
//!
//! Two things a replica must *not* do: call `Wal::recover` on the live
//! directory (recovery truncates torn tails, which on a live primary are
//! just appends in flight), and trust the segment path across snapshot
//! rotations (the tailer's open descriptor keeps the unlinked old segment
//! readable; the replica drains it to EOF, then switches to the new
//! segment named by `meta.json` — sequence-number dedup absorbs the
//! records the rotation carried forward).
//!
//! The replication lag window is one poll interval plus whatever the
//! trainer apply costs: appends are visible to the tailer as soon as the
//! primary's `write_all` returns, independent of fsync policy.

use seqge_backend::{BackendSpec, TrainBackend};
use seqge_graph::{io as graph_io, EdgeEvent, Graph};
use seqge_serve::snapshot::{EmbeddingSnapshot, SnapshotCell};
use seqge_serve::wal::{self, SegmentTailer};
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How a replica reconstructs the primary's training pipeline. Every
/// field must match the primary exactly or the replay diverges.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Training-backend spec (kind, walk/OS-ELM parameters, seed) — must
    /// name the same backend the primary runs.
    pub spec: BackendSpec,
    /// Full-resample cadence (0 = never), as on the primary.
    pub refresh_every: u64,
    /// Tail poll interval — the dominant term of the lag window.
    pub poll: Duration,
}

/// A running replica. Dropping it stops the tail thread.
pub struct Replica {
    cell: Arc<SnapshotCell>,
    applied: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    failed: Arc<Mutex<Option<String>>>,
    thread: Option<JoinHandle<()>>,
}

impl Replica {
    /// Boots a replica of the shard whose WAL lives in `dir` and starts
    /// tailing. Fails if the store has never committed.
    pub fn start(dir: &Path, cfg: ReplicaConfig) -> io::Result<Replica> {
        let meta = wal::read_meta(dir)?.ok_or_else(|| {
            io::Error::new(
                ErrorKind::NotFound,
                format!("{}: no committed store to replicate", dir.display()),
            )
        })?;
        let mut backend = cfg.spec.load(&dir.join(format!("model.{}.sge", meta.gen)))?;
        let graph = graph_io::load_graph(dir.join(format!("graph.{}.edges", meta.gen)))
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        if backend.num_nodes() != graph.num_nodes() {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!(
                    "snapshot mismatch: model covers {} nodes, graph has {}",
                    backend.num_nodes(),
                    graph.num_nodes()
                ),
            ));
        }

        let boot = EmbeddingSnapshot {
            version: meta.applied_seq,
            emb: backend.publish_view(),
            num_edges: graph.num_edges(),
            walks_trained: 0,
            edges_inserted: 0,
            edges_removed: 0,
            ann: None,
        };
        let cell = Arc::new(SnapshotCell::new(boot));
        let applied = Arc::new(AtomicU64::new(meta.applied_seq));
        let stop = Arc::new(AtomicBool::new(false));
        let failed = Arc::new(Mutex::new(None));

        let mut tail = TailLoop {
            dir: dir.to_path_buf(),
            cfg,
            graph,
            backend,
            segment: meta.segment,
            since_refresh: meta.since_refresh,
            applied_seq: meta.applied_seq,
            walks_trained: 0,
            edges_inserted: 0,
            edges_removed: 0,
            cell: cell.clone(),
            applied: applied.clone(),
            stop: stop.clone(),
        };
        let failed2 = failed.clone();
        let thread = thread::Builder::new().name("seqge-replica".to_string()).spawn(move || {
            if let Err(e) = tail.run() {
                *failed2.lock().expect("replica failure slot poisoned") = Some(e.to_string());
            }
        })?;
        Ok(Replica { cell, applied, stop, failed, thread: Some(thread) })
    }

    /// The replica's published snapshot (router read fallback).
    pub fn cell(&self) -> Arc<SnapshotCell> {
        self.cell.clone()
    }

    /// Highest WAL sequence number folded into the published snapshot.
    pub fn applied_seq(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// A shared handle on the applied-sequence counter (the router's
    /// `cluster_status` reads it without holding the replica).
    pub fn applied_counter(&self) -> Arc<AtomicU64> {
        self.applied.clone()
    }

    /// The tail thread's fatal error, if it died.
    pub fn failure(&self) -> Option<String> {
        self.failed.lock().expect("replica failure slot poisoned").clone()
    }

    /// Stops the tail thread and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The tail thread's owned state: graph/backend plus replay bookkeeping
/// mirroring WAL recovery exactly.
struct TailLoop {
    dir: PathBuf,
    cfg: ReplicaConfig,
    graph: Graph,
    backend: Box<dyn TrainBackend>,
    segment: u64,
    since_refresh: u64,
    applied_seq: u64,
    walks_trained: usize,
    edges_inserted: usize,
    edges_removed: usize,
    cell: Arc<SnapshotCell>,
    applied: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl TailLoop {
    fn segment_path(&self, seg: u64) -> PathBuf {
        self.dir.join(format!("wal.{seg}.log"))
    }

    fn run(&mut self) -> io::Result<()> {
        let mut tailer = SegmentTailer::new(self.segment_path(self.segment));
        while !self.stop.load(Ordering::SeqCst) {
            let n = self.apply(tailer.poll()?);
            if n > 0 {
                self.publish();
            }
            // Rotation: the primary committed a snapshot and switched
            // segments. Drain the old descriptor to EOF first, then pick
            // up the new file from its header.
            match wal::read_meta(&self.dir)? {
                Some(meta) if meta.segment != self.segment => {
                    if self.apply(tailer.poll()?) > 0 {
                        self.publish();
                    }
                    self.segment = meta.segment;
                    tailer = SegmentTailer::new(self.segment_path(self.segment));
                }
                _ => {}
            }
            thread::sleep(self.cfg.poll);
        }
        Ok(())
    }

    /// Replays decoded records; mirror of `Trainer::apply` / WAL
    /// recovery: seq-dedup first, rejected events don't advance the
    /// refresh cadence, cadence check after every event.
    fn apply(&mut self, records: Vec<wal::WalRecord>) -> usize {
        let mut applied = 0;
        for rec in records {
            if rec.seq <= self.applied_seq {
                continue; // already folded in (or carried by a rotation)
            }
            self.applied_seq = rec.seq;
            if let Ok(walks) = self.backend.ingest(&mut self.graph, rec.event) {
                self.walks_trained += walks;
                match rec.event {
                    EdgeEvent::Add(..) => self.edges_inserted += 1,
                    EdgeEvent::Remove(..) => self.edges_removed += 1,
                }
                self.since_refresh += 1;
                applied += 1;
            }
            if self.cfg.refresh_every > 0 && self.since_refresh >= self.cfg.refresh_every {
                self.backend.refresh(&self.graph);
                self.since_refresh = 0;
            }
        }
        applied
    }

    fn publish(&mut self) {
        self.cell.publish(EmbeddingSnapshot {
            version: self.applied_seq,
            emb: self.backend.publish_view(),
            num_edges: self.graph.num_edges(),
            walks_trained: self.walks_trained,
            edges_inserted: self.edges_inserted,
            edges_removed: self.edges_removed,
            ann: None,
        });
        self.applied.store(self.applied_seq, Ordering::SeqCst);
    }
}
