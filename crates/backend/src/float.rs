//! The float OS-ELM backend — the pre-refactor serving engine behind the
//! trait, bit-identical to driving [`OsElmSkipGram`] +
//! [`IncrementalTrainer`] by hand: every trait method delegates exactly the
//! call the serve trainer used to make, in the same order, on the same RNG
//! stream. The published view is cached until the next training call.

use crate::{BackendKind, TrainBackend};
use seqge_core::model::EmbeddingModel;
use seqge_core::{persist, IncrementalTrainer, OsElmSkipGram, SeqOutcome};
use seqge_graph::{EdgeEvent, Graph, GraphError};
use seqge_linalg::Mat;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Float OS-ELM ([`OsElmSkipGram`]) driven by [`IncrementalTrainer`].
pub struct FloatBackend {
    model: OsElmSkipGram,
    inc: IncrementalTrainer,
    /// The last published view; dropped by every call that trains.
    view: Option<Arc<Mat<f32>>>,
}

impl FloatBackend {
    /// Cold (untrained) engine over `num_nodes` nodes.
    pub fn cold(num_nodes: usize, spec: &crate::BackendSpec) -> FloatBackend {
        FloatBackend {
            model: OsElmSkipGram::new(num_nodes, spec.oselm),
            inc: IncrementalTrainer::new(num_nodes, &spec.train, spec.policy, spec.seed),
            view: None,
        }
    }

    /// Engine over a persisted snapshot with a fresh sequential driver
    /// (WAL replay semantics).
    pub fn load(path: &Path, spec: &crate::BackendSpec) -> io::Result<FloatBackend> {
        let model = persist::load_oselm(path)?;
        let inc = IncrementalTrainer::new(model.num_nodes(), &spec.train, spec.policy, spec.seed);
        Ok(FloatBackend { model, inc, view: None })
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
        self.view = None;
        self.inc.bootstrap(g, &mut self.model);
    }

    fn ingest(&mut self, g: &mut Graph, event: EdgeEvent) -> Result<usize, GraphError> {
        // A rejected event leaves all state untouched, the view included.
        let walks = self.inc.ingest(g, event, &mut self.model)?;
        self.view = None;
        Ok(walks)
    }

    fn refresh(&mut self, g: &Graph) -> usize {
        self.view = None;
        self.inc.refresh(g, &mut self.model)
    }

    fn publish_view(&mut self) -> Arc<Mat<f32>> {
        self.view.get_or_insert_with(|| Arc::new(self.model.embedding())).clone()
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
