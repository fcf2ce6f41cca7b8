//! Integration test for the persistence layer at the level users care
//! about: exact resume from a checkpoint.

use seqge::core::model::EmbeddingModel;
use seqge::core::{full_corpus, persist, OsElmConfig, OsElmSkipGram, TrainConfig};
use seqge::graph::Dataset;
use seqge::sampling::Rng64;

fn small_cfg(dim: usize) -> TrainConfig {
    let mut cfg = TrainConfig::paper_defaults(dim);
    cfg.walk.walk_length = 30;
    cfg.walk.walks_per_node = 4;
    cfg.model.negative_samples = 5;
    cfg
}

/// Checkpoint → restore → continue must equal uninterrupted training
/// (state round-trip is exact, and the trainer has no hidden state outside
/// the model + rng).
#[test]
fn checkpoint_resume_is_exact() {
    let g = Dataset::Cora.generate_scaled(0.1, 24);
    let cfg = small_cfg(8);
    let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(8) };
    let (_, walks, table, _) = full_corpus(&g, &cfg, 2);
    let split = walks.len() / 2;

    // Uninterrupted run.
    let mut full = OsElmSkipGram::new(g.num_nodes(), ocfg);
    let mut r1 = Rng64::seed_from_u64(77);
    for w in &walks {
        full.train_walk(w, &table, &mut r1);
    }

    // Interrupted at the midpoint: serialize, restore, continue with a
    // fresh-but-identically-seeded rng stream for the second half.
    let mut first = OsElmSkipGram::new(g.num_nodes(), ocfg);
    let mut r2 = Rng64::seed_from_u64(77);
    for w in &walks[..split] {
        first.train_walk(w, &table, &mut r2);
    }
    let mut buf = Vec::new();
    persist::write_oselm(&first, &mut buf).unwrap();
    let mut restored = persist::read_oselm(&buf[..]).unwrap();
    for w in &walks[split..] {
        restored.train_walk(w, &table, &mut r2);
    }

    let diff = full.beta_t().max_abs_diff(restored.beta_t());
    assert!(diff < 1e-6, "resume must be exact: {diff}");
    assert!(full.p().max_abs_diff(restored.p()) < 1e-6);
}
