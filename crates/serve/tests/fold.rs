//! The apply rule, one step at a time: `Fold::apply` against a counting
//! fake backend, so "how many times did it train / resample" is observed
//! directly instead of inferred from embeddings.

use seqge_backend::{BackendKind, TrainBackend};
use seqge_core::SeqOutcome;
use seqge_graph::{EdgeEvent, Graph, GraphError};
use seqge_linalg::{Mat, NormedMat};
use seqge_serve::{Applied, Fold};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Applies events to the graph and counts calls; trains nothing.
struct Counting {
    ingests: Arc<AtomicUsize>,
    refreshes: Arc<AtomicUsize>,
}

impl TrainBackend for Counting {
    fn kind(&self) -> BackendKind {
        BackendKind::Float
    }
    fn descriptor(&self) -> String {
        "{}".to_string()
    }
    fn num_nodes(&self) -> usize {
        4
    }
    fn bootstrap(&mut self, _: &Graph) {}
    fn ingest(&mut self, g: &mut Graph, event: EdgeEvent) -> Result<usize, GraphError> {
        self.ingests.fetch_add(1, Ordering::Relaxed);
        event.apply(g).map(|()| 2)
    }
    fn refresh(&mut self, _: &Graph) -> usize {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        0
    }
    fn publish_view(&mut self) -> Arc<NormedMat> {
        Arc::new(Mat::zeros(4, 1).into())
    }
    fn outcome(&self) -> SeqOutcome {
        SeqOutcome { edges_inserted: 0, walks_trained: 0, table_rebuilds: 0 }
    }
    fn edges_removed(&self) -> usize {
        0
    }
    fn save_state(&self, _: &std::path::Path) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn apply_rule_table() {
    use Applied::{Rejected, Skipped, Trained};
    use EdgeEvent::{Add, Remove};
    let (ingests, refreshes) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let backend = Counting { ingests: ingests.clone(), refreshes: refreshes.clone() };
    // Resumed at seq 10 with one trained event already on the cadence clock.
    let mut fold = Fold::new(Graph::with_nodes(4), Box::new(backend), 10, 1, 3);

    // (seq, event) → (outcome, refresh fired, cursor after, cadence after)
    let table = [
        // At or below the resume cursor: covered by the snapshot.
        (9, Add(0, 1), Skipped, false, 10, 1),
        (10, Add(0, 1), Skipped, false, 10, 1),
        (11, Add(0, 1), Trained(2), false, 11, 2),
        // Duplicate record of an applied seq: not trained twice.
        (11, Add(0, 1), Skipped, false, 11, 2),
        // Rejected by the graph: the cursor moves, the cadence does not.
        (12, Add(0, 1), Rejected, false, 12, 2),
        (13, Remove(2, 3), Rejected, false, 13, 2),
        // The third *trained* event fires the resample and resets the clock.
        (14, Add(1, 2), Trained(2), true, 14, 0),
        // Sequence gaps are fine (a rotation drops covered records).
        (20, Remove(0, 1), Trained(2), false, 20, 1),
        (21, Add(2, 3), Trained(2), false, 21, 2),
        (22, Add(2, 3), Rejected, false, 22, 2),
        (23, Add(0, 3), Trained(2), true, 23, 0),
        // Stale after a gap.
        (15, Add(0, 2), Skipped, false, 23, 0),
    ];
    for (row, &(seq, event, applied, refreshed, cursor, cadence)) in table.iter().enumerate() {
        let step = fold.apply(seq, event);
        assert_eq!((step.applied, step.refreshed), (applied, refreshed), "row {row}: seq {seq}");
        assert_eq!(fold.applied_seq(), cursor, "row {row}: cursor");
        assert_eq!(fold.since_refresh(), cadence, "row {row}: cadence");
    }
    // Skipped events never reach the backend; each refresh fired exactly once.
    assert_eq!(ingests.load(Ordering::Relaxed), 8);
    assert_eq!(refreshes.load(Ordering::Relaxed), 2);
    assert_eq!(fold.graph.num_edges(), 3);

    // `refresh_every == 0` never resamples, however long the run.
    let backend = Counting { ingests: ingests.clone(), refreshes: refreshes.clone() };
    let mut never = Fold::new(Graph::with_nodes(4), Box::new(backend), 0, 0, 0);
    assert!(!never.apply(1, Add(0, 1)).refreshed && !never.apply(2, Add(1, 2)).refreshed);
    assert_eq!(refreshes.load(Ordering::Relaxed), 2);
}
