//! Read replicas: a warm copy of one shard's embeddings, fed by streaming
//! the shard's WAL.
//!
//! A replica boots from the primary's last *committed* generation
//! (`meta.json` → `model.<g>.sge` + `graph.<g>.edges`) and then tails the
//! active segment with [`seqge_serve::wal::SegmentTailer`], folding each
//! record into its own backend through [`seqge_serve::Fold`] — the step WAL
//! recovery and the live trainer run, so a replica that has consumed up to
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

use seqge_backend::BackendSpec;
use seqge_serve::snapshot::{EmbeddingSnapshot, SnapshotCell};
use seqge_serve::wal::{self, SegmentTailer};
use seqge_serve::{Applied, Fold};
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
        let (graph, backend) = wal::load_generation(dir, &cfg.spec, meta.gen)?;
        let applied = Arc::new(AtomicU64::new(meta.applied_seq));
        let stop = Arc::new(AtomicBool::new(false));
        let failed = Arc::new(Mutex::new(None));

        let mut tail = TailLoop {
            dir: dir.to_path_buf(),
            poll: cfg.poll,
            fold: Fold::new(
                graph,
                backend,
                meta.applied_seq,
                meta.since_refresh,
                cfg.refresh_every,
            ),
            segment: meta.segment,
            applied: applied.clone(),
            stop: stop.clone(),
        };
        let cell = Arc::new(SnapshotCell::new(tail.snapshot()));
        let (cell2, failed2) = (cell.clone(), failed.clone());
        let thread = thread::Builder::new().name("seqge-replica".to_string()).spawn(move || {
            if let Err(e) = tail.run(&cell2) {
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

    /// Stops the tail thread and joins it — which is what dropping does.
    pub fn stop(self) {}
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The tail thread's owned state.
struct TailLoop {
    dir: PathBuf,
    poll: Duration,
    fold: Fold,
    segment: u64,
    applied: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl TailLoop {
    fn run(&mut self, cell: &SnapshotCell) -> io::Result<()> {
        let mut tailer = SegmentTailer::new(wal::segment_path(&self.dir, self.segment));
        while !self.stop.load(Ordering::SeqCst) {
            if self.apply(tailer.poll()?) > 0 {
                self.publish(cell);
            }
            // Rotation: the primary committed a snapshot and switched
            // segments. Drain the old descriptor to EOF first, then pick
            // up the new file from its header.
            match wal::read_meta(&self.dir)? {
                Some(meta) if meta.segment != self.segment => {
                    if self.apply(tailer.poll()?) > 0 {
                        self.publish(cell);
                    }
                    self.segment = meta.segment;
                    tailer = SegmentTailer::new(wal::segment_path(&self.dir, self.segment));
                }
                _ => {}
            }
            thread::sleep(self.poll);
        }
        Ok(())
    }

    /// Folds decoded records in (records already covered, or carried
    /// forward by a rotation, are skipped); returns how many trained.
    fn apply(&mut self, records: Vec<wal::WalRecord>) -> usize {
        let mut trained = 0;
        for rec in records {
            if let Applied::Trained(_) = self.fold.apply(rec.seq, rec.event).applied {
                trained += 1;
            }
        }
        trained
    }

    /// The fold as of its cursor, indexless: a replica answers point reads.
    fn snapshot(&mut self) -> EmbeddingSnapshot {
        self.fold.snapshot(self.fold.applied_seq(), None).0
    }

    fn publish(&mut self, cell: &SnapshotCell) {
        cell.publish(self.snapshot());
        self.applied.store(self.fold.applied_seq(), Ordering::SeqCst);
    }
}
