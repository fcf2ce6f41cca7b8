//! The fold step: `state_t = f(state_{t-1}, e_t)`.
//!
//! OS-ELM skip-gram is sequentially trainable, so a node's model is a fold
//! over its sequence-numbered edge stream, and a snapshot plus an ordered
//! log describes the node completely. [`Fold`] is that step function — the
//! only code on the serving path that trains. The live trainer thread, WAL
//! recovery and the replica tail loop all feed it the same `(seq, event)`
//! pairs, which is why a recovered node, a replica and an uninterrupted run
//! agree bit for bit. [`Fold::snapshot`] is the other half: the only code
//! that turns that state into what a reader sees, so a primary and its
//! replica also report the same counters — the backend's.

use crate::snapshot::EmbeddingSnapshot;
use seqge_ann::{AnnBuilder, SyncReport};
use seqge_backend::TrainBackend;
use seqge_graph::{EdgeEvent, Graph};

/// What [`Fold::apply`] did with one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// `seq` is at or below the cursor (already folded in, or a duplicate
    /// record): nothing changed.
    Skipped,
    /// The graph took the event and this many walks were trained.
    Trained(usize),
    /// The graph refused the event (duplicate add, missing remove). It is
    /// settled all the same: the cursor moved past it, so it never replays.
    Rejected,
}

/// The outcome of one [`Fold::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// What happened to the event.
    pub applied: Applied,
    /// Whether the event tipped the cadence into a full corpus resample.
    pub refreshed: bool,
}

/// Graph + training backend + the two cursors that make replay exact.
pub struct Fold {
    /// The graph as of the last applied event.
    pub graph: Graph,
    /// The training engine (model state plus walk corpus / negative table).
    pub backend: Box<dyn TrainBackend>,
    applied_seq: u64,
    since_refresh: u64,
    refresh_every: u64,
}

impl Fold {
    /// Resumes the fold at `applied_seq` with `since_refresh` trained events
    /// on the cadence clock; `refresh_every == 0` never resamples.
    pub fn new(
        graph: Graph,
        backend: Box<dyn TrainBackend>,
        applied_seq: u64,
        since_refresh: u64,
        refresh_every: u64,
    ) -> Fold {
        Fold { graph, backend, applied_seq, since_refresh, refresh_every }
    }

    /// Highest sequence number consumed — trained *or* rejected.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Events trained since the last corpus resample.
    pub fn since_refresh(&self) -> u64 {
        self.since_refresh
    }

    /// Folds one event in. Only a trained event advances the refresh
    /// cadence; the cadence is checked after every consumed event, so a
    /// store reopened under a smaller `refresh_every` catches up at once.
    pub fn apply(&mut self, seq: u64, event: EdgeEvent) -> Step {
        if seq <= self.applied_seq {
            return Step { applied: Applied::Skipped, refreshed: false };
        }
        self.applied_seq = seq;
        let applied = match self.backend.ingest(&mut self.graph, event) {
            Ok(walks) => {
                self.since_refresh += 1;
                Applied::Trained(walks)
            }
            Err(_) => Applied::Rejected,
        };
        let refreshed = self.refresh_every > 0 && self.since_refresh >= self.refresh_every;
        if refreshed {
            self.backend.refresh(&self.graph);
            self.since_refresh = 0;
        }
        Step { applied, refreshed }
    }

    /// Renders the fold as publication `version`: the backend's view (where
    /// its deferred work lands — the rows training wrote are re-rendered,
    /// and fpga-sim, closing a shadowed window, re-measures the shadow
    /// deviation), the backend's own counters, and, given an index
    /// maintainer, the index synced against exactly that matrix (with the
    /// sync's report) — index and embeddings travel in one `Arc`, so a
    /// reader can never observe one without the other. The sync visits only
    /// the rows the backend re-rendered ([`TrainBackend::last_delta`]) when
    /// the index was synced on the view they replaced. With nothing trained
    /// since the last render, the backend hands out the same view `Arc` and
    /// the sync returns the same index `Arc`, so the new snapshot shares
    /// both with the last one.
    pub fn snapshot(
        &mut self,
        version: u64,
        ann: Option<&mut AnnBuilder>,
    ) -> (EmbeddingSnapshot, Option<SyncReport>) {
        let out = self.backend.outcome();
        let emb = self.backend.publish_view();
        let (ann, report) = ann
            .map(|b| match self.backend.last_delta() {
                Some((from, rows)) => b.sync_rows(&emb, from, rows),
                None => b.sync(&emb),
            })
            .unzip();
        let snapshot = EmbeddingSnapshot {
            version,
            emb,
            num_edges: self.graph.num_edges(),
            walks_trained: out.walks_trained,
            edges_inserted: out.edges_inserted,
            edges_removed: self.backend.edges_removed(),
            ann,
        };
        (snapshot, report)
    }
}
