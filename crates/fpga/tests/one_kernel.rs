//! One algorithm, two precisions: `DataflowOsElm` and `Accelerator` are the
//! f32 and Q8.24 instantiations of one Algorithm 2 walk, so on the same
//! walks and draws they must agree on everything but the arithmetic — the
//! rows each commit writes, the contexts the guard drops, the RNG position —
//! and their embeddings must stay within the Fig. 4 quantization band.

use seqge_core::model::EmbeddingModel;
use seqge_core::{full_corpus, DataflowOsElm, OsElmConfig, TrainConfig};
use seqge_fixed::Q8_24;
use seqge_fpga::Accelerator;
use seqge_graph::generators::classic::erdos_renyi;
use seqge_graph::NodeId;
use seqge_linalg::Mat;
use seqge_sampling::{NegativeTable, Node2VecParams, Rng64, UpdatePolicy, WalkCorpus};

/// Fixed-vs-float mean absolute embedding deviation over the float
/// magnitude, in parts per million (the fpga-sim backend's probe).
fn deviation_ppm(fixed: &Mat<f32>, float: &Mat<f32>) -> f64 {
    let pairs = fixed.as_slice().iter().zip(float.as_slice());
    let num: f64 = pairs.map(|(a, b)| f64::from((a - b).abs())).sum();
    let den: f64 = float.as_slice().iter().map(|b| f64::from(b.abs())).sum();
    num / den * 1e6
}

#[test]
fn paper_geometry_trains_the_same_rows_at_both_precisions() {
    let n = 1000;
    let mut accel = Accelerator::new(n, OsElmConfig::paper_defaults(32));
    // The accelerator's config: PerWalk negatives, shared by both.
    let mut float = DataflowOsElm::new(n, *accel.config());
    let g = erdos_renyi(n, 6.0 / n as f64, 3);
    let cfg = TrainConfig {
        walk: Node2VecParams { walk_length: 80, walks_per_node: 1, ..Default::default() },
        model: accel.config().model,
    };
    let (_, corpus, table, rng) = full_corpus(&g, &cfg, 3);
    let (mut rng_fixed, mut rng_float) = (rng.clone(), rng);
    let walks: Vec<_> = corpus.iter().filter(|w| w.len() > 1).take(208).collect();
    assert_eq!(walks.len(), 208, "graph too sparse for the requested walk count");
    for (i, walk) in walks.iter().enumerate() {
        accel.train_walk(walk, &table, &mut rng_fixed);
        float.train_walk(walk, &table, &mut rng_float);
        if i % 16 == 15 {
            assert_eq!(accel.take_dirty(), float.take_dirty(), "dirty rows, walk {i}");
        }
    }
    assert_eq!(accel.take_dirty(), float.take_dirty());
    assert_eq!(accel.stats.guarded, float.guarded_updates());
    assert_eq!(rng_fixed.next_u64(), rng_float.next_u64(), "RNG position");
    let dev = deviation_ppm(&accel.embedding(), &float.embedding());
    assert!(dev > 0.0 && dev < 5_000.0, "outside the Fig. 4 band: {dev} ppm");
}

/// A context that fails the positivity guard leaves β, `P` and Δβ as they
/// were and is counted once, in either precision. The state is the rail
/// regime's (β in ±120 at μ = 1, so that `H = β[center]`) with `P = −100·I`:
/// `λ + HPHᵀ` is far below ½λ in both datapaths.
#[test]
fn a_guarded_context_changes_nothing_at_either_precision() {
    let (n, d) = (40, 32);
    let cfg = OsElmConfig { mu: 1.0, ..OsElmConfig::paper_defaults(d) };
    let mut rng = Rng64::seed_from_u64(9);
    let beta = (0..n * d).map(|_| Q8_24::from_f64((rng.next_f64() - 0.5) * 240.0)).collect();
    let mut p = vec![Q8_24::ZERO; d * d];
    for i in 0..d {
        p[i * d + i] = Q8_24::from_f64(-100.0);
    }
    let mut accel = Accelerator::from_raw_parts(n, cfg, beta, p);
    let mut float = DataflowOsElm::from_parts(*accel.config(), accel.beta_f32(), accel.p_f32());
    let (beta_bits, p_bits) = (accel.beta_bits().to_vec(), accel.p_bits().to_vec());
    let (beta_f32, p_f32) = (float.beta_t().clone(), float.p().clone());

    let mut corpus = WalkCorpus::new(n);
    corpus.record(&(0..n as NodeId).collect::<Vec<_>>());
    let mut table = NegativeTable::new(UpdatePolicy::every_edge());
    table.rebuild(&corpus);
    // Exactly one context: a walk as long as the window.
    let walk: Vec<NodeId> = (0..cfg.model.window as NodeId).collect();
    let (mut rng_fixed, mut rng_float) = (rng.clone(), rng);
    accel.train_walk(&walk, &table, &mut rng_fixed);
    float.train_walk(&walk, &table, &mut rng_float);

    assert_eq!((accel.stats.guarded, float.guarded_updates()), (1, 1));
    assert_eq!((accel.beta_bits(), accel.p_bits()), (&beta_bits[..], &p_bits[..]));
    assert_eq!((float.beta_t(), float.p()), (&beta_f32, &p_f32));
    // Δβ stayed empty: the commit wrote no row.
    assert_eq!((accel.take_dirty(), float.take_dirty()), (vec![], vec![]));
    assert_eq!(accel.stats.walks, 1, "the walk itself still ran");
    assert_eq!(rng_fixed.next_u64(), rng_float.next_u64(), "RNG position");
}
