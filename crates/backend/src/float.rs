//! The float OS-ELM backend — Algorithm 1 over the shared per-walk
//! negatives [`crate::BackendSpec::new`] sets, bit-identical to driving
//! [`OsElmSkipGram`] + [`IncrementalTrainer`] by hand: every trait method
//! delegates exactly one call, in the same order, on the same RNG stream.
//! The published view lives in a [`ViewBuffer`]: a publish re-renders only
//! the rows of `μ·βᵀ` whose β the model wrote since the last one, at most
//! `2·(l + ns)` per event.

use crate::{BackendKind, TrainBackend, ViewBuffer};
use seqge_core::model::EmbeddingModel;
use seqge_core::{persist, IncrementalTrainer, OsElmSkipGram, SeqOutcome};
use seqge_graph::{EdgeEvent, Graph, GraphError, NodeId};
use seqge_linalg::NormedMat;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Float OS-ELM ([`OsElmSkipGram`]) driven by [`IncrementalTrainer`].
pub struct FloatBackend {
    model: OsElmSkipGram,
    inc: IncrementalTrainer,
    view: ViewBuffer,
}

impl FloatBackend {
    /// Cold (untrained) engine over `num_nodes` nodes.
    pub fn cold(num_nodes: usize, spec: &crate::BackendSpec) -> FloatBackend {
        FloatBackend::assemble(OsElmSkipGram::new(num_nodes, spec.oselm), spec)
    }

    /// Engine over a persisted snapshot with a fresh sequential driver
    /// (WAL replay semantics).
    pub fn load(path: &Path, spec: &crate::BackendSpec) -> io::Result<FloatBackend> {
        Ok(FloatBackend::assemble(persist::load_oselm(path)?, spec))
    }

    fn assemble(model: OsElmSkipGram, spec: &crate::BackendSpec) -> FloatBackend {
        let (n, dim) = (model.num_nodes(), model.dim());
        let inc = IncrementalTrainer::new(n, &spec.train, spec.policy, spec.seed);
        FloatBackend { model, inc, view: ViewBuffer::new(n, dim) }
    }
}

impl TrainBackend for FloatBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Float
    }

    fn descriptor(&self) -> String {
        let cfg = self.model.config();
        format!(
            "{{\"name\":\"float\",\"dim\":{},\"seed\":{},\"mu\":{},\"forgetting\":{}}}",
            cfg.model.dim, cfg.model.seed, cfg.mu, cfg.forgetting
        )
    }

    fn num_nodes(&self) -> usize {
        self.model.num_nodes()
    }

    fn bootstrap(&mut self, g: &Graph) {
        self.inc.bootstrap(g, &mut self.model);
    }

    fn ingest(&mut self, g: &mut Graph, event: EdgeEvent) -> Result<usize, GraphError> {
        self.inc.ingest(g, event, &mut self.model)
    }

    fn refresh(&mut self, g: &Graph) -> usize {
        self.inc.refresh(g, &mut self.model)
    }

    fn publish_view(&mut self) -> Arc<NormedMat> {
        let dirty = self.model.take_dirty();
        let model = &self.model;
        self.view.publish(dirty, |row, out| model.embed_row(row, out))
    }

    fn last_delta(&self) -> Option<(&Arc<NormedMat>, &[NodeId])> {
        self.view.last_delta()
    }

    fn outcome(&self) -> SeqOutcome {
        self.inc.outcome()
    }

    fn edges_removed(&self) -> usize {
        self.inc.edges_removed()
    }

    fn save_state(&self, path: &Path) -> io::Result<()> {
        persist::save_oselm(&self.model, path)
    }
}
