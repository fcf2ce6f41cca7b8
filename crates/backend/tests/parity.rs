//! Golden parity: the trait refactor must change *nothing* about what gets
//! trained.
//!
//! * [`FloatBackend`] vs. driving `OsElmSkipGram` + `IncrementalTrainer` by
//!   hand (the pre-refactor serve trainer) — snapshot **bytes** compared.
//! * [`FpgaSimBackend`] vs. the offline `seqge-fpga` functional execution of
//!   the same event stream — raw Q8.24 words compared.
//! * fpga-sim's float shadow must not perturb the accelerator's RNG stream,
//!   and sampling it one window in eight reports the always-on values.
//! * The kernel's saturation count runs on every walk.
//! * The float backend's publish sequence — every view's bits and what an
//!   index sync on it finds dirty and re-projects — is pinned, and both
//!   backends reproduce it with the index told the rows each publish
//!   re-rendered.
//! * Save → load → replay is deterministic (the WAL recovery contract).
//! * The bytes `save_state` writes — the SGE1 container — are pinned by hash.

use seqge_ann::{AnnBuilder, AnnConfig};
use seqge_backend::fixedstate::save_fixed;
use seqge_backend::fpga_sim::SHADOW_EVERY;
use seqge_backend::{BackendKind, BackendSpec, FpgaSimBackend, TrainBackend};
use seqge_core::model::EmbeddingModel;
use seqge_core::{persist, IncrementalTrainer, OsElmConfig, OsElmSkipGram, TrainConfig};
use seqge_fixed::Q8_24;
use seqge_fpga::Accelerator;
use seqge_graph::generators::classic::erdos_renyi;
use seqge_graph::{spanning_forest, EdgeEvent, Graph};
use seqge_linalg::Mat;
use seqge_sampling::{Rng64, UpdatePolicy};
use std::path::PathBuf;
use std::sync::Arc;

const DIM: usize = 8;
const SEED: u64 = 11;

fn train_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::paper_defaults(DIM);
    cfg.walk.walk_length = 12;
    cfg.walk.walks_per_node = 2;
    cfg
}

fn ocfg() -> OsElmConfig {
    OsElmConfig { model: train_cfg().model, ..OsElmConfig::paper_defaults(DIM) }
}

fn spec(kind: BackendKind) -> BackendSpec {
    BackendSpec::new(kind, train_cfg(), ocfg(), UpdatePolicy::every_edge(), SEED)
}

/// Boot graph + the held-out event stream.
fn scenario() -> (Graph, Vec<EdgeEvent>) {
    let full = erdos_renyi(40, 0.18, 7);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let events = split.removed_edges.iter().map(|&(u, v)| EdgeEvent::Add(u, v)).collect::<Vec<_>>();
    assert!(events.len() >= 10, "scenario must hold out a real stream");
    (initial, events)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("seqge-backend-parity-{}-{name}", std::process::id()))
}

#[test]
fn float_backend_is_byte_identical_to_manual_driver() {
    // Pre-refactor serve trainer: hand-driven model + driver.
    let (mut g, events) = scenario();
    let mut model = OsElmSkipGram::new(g.num_nodes(), ocfg());
    let mut inc =
        IncrementalTrainer::new(g.num_nodes(), &train_cfg(), UpdatePolicy::every_edge(), SEED);
    inc.bootstrap(&g, &mut model);
    for &e in &events {
        inc.ingest(&mut g, e, &mut model).unwrap();
    }

    // Refactored path: same calls through the trait object.
    let (mut g2, _) = scenario();
    let mut be = spec(BackendKind::Float).cold(g2.num_nodes());
    be.bootstrap(&g2);
    for &e in &events {
        be.ingest(&mut g2, e).unwrap();
    }

    let mut manual_bytes = Vec::new();
    persist::write_oselm(&model, &mut manual_bytes).unwrap();
    let path = tmp("float.sge");
    be.save_state(&path).unwrap();
    let backend_bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(manual_bytes, backend_bytes, "snapshot bytes must match pre-refactor trainer");
    assert_eq!(be.outcome().walks_trained, inc.outcome().walks_trained);
    assert_eq!(be.publish_view().as_slice(), model.embedding().as_slice());
}

#[test]
fn fpga_sim_matches_offline_functional_execution() {
    // The offline repro: the Q8.24 kernel driven directly by the sequential
    // trainer (what `seqge-fpga` executes over a prerecorded stream).
    let (mut g, events) = scenario();
    let mut acc = Accelerator::new(g.num_nodes(), ocfg());
    let mut inc =
        IncrementalTrainer::new(g.num_nodes(), &train_cfg(), UpdatePolicy::every_edge(), SEED);
    inc.bootstrap(&g, &mut acc);
    for &e in &events {
        inc.ingest(&mut g, e, &mut acc).unwrap();
    }

    // The serving backend over the same stream: its float shadow must be
    // invisible to the fixed-point trajectory.
    let (mut g2, _) = scenario();
    let mut be = FpgaSimBackend::cold(g2.num_nodes(), &spec(BackendKind::FpgaSim));
    be.bootstrap(&g2);
    for &e in &events {
        be.ingest(&mut g2, e).unwrap();
    }

    assert_eq!(be.accel().beta_bits(), acc.beta_bits(), "β words must match offline execution");
    assert_eq!(be.accel().p_bits(), acc.p_bits(), "P words must match offline execution");
    assert_eq!(be.accel().stats.cycles, acc.stats.cycles, "cycle accounting must match");
    // And the published view is exactly the dequantized kernel state.
    assert_eq!(
        be.publish_view().as_slice(),
        EmbeddingModel::embedding(&acc).as_slice(),
        "dirty-row publish must equal full dequantization"
    );

    let dev = be.deviation_ppm().expect("the shadow measured that publish");
    assert!(dev > 0, "fixed point must deviate measurably from float");
    // Quantization correctness, not speed: a wrong Q8.24 scale or a
    // saturation storm reads 10^5+ where a healthy kernel reads 10^1–10^3,
    // so the ceiling is a constant.
    assert!(dev < 5_000, "deviation should stay in the Fig. 4 band (got {dev} ppm)");
    // A dead planner means the capacity-headroom metrics are lying.
    let plan = be.planner().expect("fpga-sim prices its walks");
    assert!(plan.cycles_total > 0 && plan.predicted_ingest_eps > 0.0, "{plan:?}");
}

/// `deviation_ppm()` after each walk-bearing publish of
/// `publish_sequence_holds_the_accelerator_bits`' drive, as the always-on
/// shadow (one re-sync per publish) measured it: index 0 is the boot window,
/// index `k` the window closed by the publish after event `k`. One event's
/// walks drift ≈ 0.24 ppm at this size, which rounds to 0.
const ALWAYS_ON_DEVIATION_PPM: [i64; 105] = [
    35, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
];

/// The deviation probe's publish sequence: `scenario()` with a publish after
/// bootstrap and after every event, each followed by one empty (flush
/// barrier) publish. The accelerator's β / P words must match a bare
/// `Accelerator` on the same driver throughout, an empty publish must hold
/// the last measurement, and what the probe reports is pinned.
#[test]
fn publish_sequence_holds_the_accelerator_bits() {
    let (mut g, events) = scenario();
    let mut acc = Accelerator::new(g.num_nodes(), ocfg());
    let mut inc =
        IncrementalTrainer::new(g.num_nodes(), &train_cfg(), UpdatePolicy::every_edge(), SEED);
    inc.bootstrap(&g, &mut acc);
    let (mut g2, _) = scenario();
    let mut be = FpgaSimBackend::cold(g2.num_nodes(), &spec(BackendKind::FpgaSim));
    be.bootstrap(&g2);

    let mut seen = Vec::new();
    let mut publish = |be: &mut FpgaSimBackend, acc: &Accelerator| {
        let view = be.publish_view();
        assert_eq!(view.as_slice(), EmbeddingModel::embedding(acc).as_slice());
        let dev = be.deviation_ppm();
        let empty = be.publish_view();
        assert_eq!(empty.as_slice(), EmbeddingModel::embedding(acc).as_slice());
        assert!(Arc::ptr_eq(&empty, &view), "an empty publish hands out the same view");
        assert_eq!(be.deviation_ppm(), dev, "an empty publish holds the last measurement");
        assert_eq!(be.accel().beta_bits(), acc.beta_bits(), "window {}: β words", seen.len());
        assert_eq!(be.accel().p_bits(), acc.p_bits(), "window {}: P words", seen.len());
        seen.push(dev.expect("the boot window is always measured"));
    };
    publish(&mut be, &acc);
    for &e in &events {
        assert!(inc.ingest(&mut g, e, &mut acc).unwrap() > 0, "every event trains walks");
        be.ingest(&mut g2, e).unwrap();
        publish(&mut be, &acc);
    }
    // Windows 0, SHADOW_EVERY, 2·SHADOW_EVERY, … are shadowed and report
    // what the always-on probe reported there; every other one holds it.
    let every = SHADOW_EVERY as usize;
    let sampled =
        (0..ALWAYS_ON_DEVIATION_PPM.len()).map(|k| ALWAYS_ON_DEVIATION_PPM[k - k % every]);
    assert_eq!(seen, sampled.collect::<Vec<_>>());
}

/// 32-bit FNV-1a over a view's `f32` bit patterns, one word at a time.
fn bits_hash(view: &Mat<f32>) -> u32 {
    view.as_slice().iter().fold(0x811c_9dc5, |h, x| (h ^ x.to_bits()).wrapping_mul(0x0100_0193))
}

/// [`bits_hash`] of the view `float_publish_sequence_is_pinned` publishes
/// after bootstrap (index 0) and after event `k` (index `k`).
const FLOAT_VIEW_HASHES: [u32; 105] = [
    0x9d5e9f4a, 0x9112ae46, 0x11e57acc, 0x6148ffee, 0x73ccc349, 0x08a899ec, 0xb497cb66, 0xcc04bfeb,
    0x8cb67c22, 0xb0694ccd, 0x7b2d38d1, 0x658f7872, 0x50598da8, 0xc59387c6, 0x38db5346, 0xf6556766,
    0xa1d4213c, 0x25daa63f, 0x776c4c6a, 0x4bba7d5d, 0x663886c4, 0x65a1ab83, 0xb9c3f23d, 0x5fe762af,
    0x7c056ffe, 0xe94af7e8, 0x68eaf0a0, 0xb5af42ab, 0xa7979ddd, 0xe17f02b2, 0x89ebe2dd, 0xb51a6c8a,
    0xb52aecec, 0x4e4412c2, 0x05ec549d, 0x85f277b1, 0x6ea471d0, 0xde5ca6a3, 0xa016725f, 0xccde4160,
    0xe6369743, 0x700c3e1d, 0x9d423b80, 0xce501e1f, 0xb263dd4a, 0x772611b3, 0x71d0b558, 0x60a4d188,
    0xeb29c1a9, 0xa6e1bc25, 0x6b68aa75, 0x2f2f183d, 0x854cd453, 0x1182b1ec, 0xff86b884, 0x0e62832e,
    0x5e4d4c0d, 0x059ba8f5, 0xa80509ab, 0xf9783b63, 0xebf394bf, 0x142da48c, 0x9c3382f3, 0x58a2ce34,
    0x5f451c96, 0x8aa6ee8a, 0x75b9f5ff, 0x87893eec, 0x738a91e0, 0x2999e77a, 0x1d3ab780, 0xb8844383,
    0x110f2000, 0xeaecad07, 0x1f5b8686, 0xf1177448, 0x1c525da0, 0x78a65b57, 0x2d2ff775, 0xca5f5ad1,
    0x0dc204b7, 0xd6b0a3d5, 0x4e8b72bf, 0x5dab2300, 0x51f2598f, 0xe19cc6f4, 0xc49a14ca, 0x954794fd,
    0x0edeaf3f, 0xdefb532f, 0xb5656b80, 0x08988a29, 0x554a2278, 0x4bf7dd14, 0x38390f92, 0x4c42caad,
    0x5f8cd7f9, 0xbc46297a, 0xa475471d, 0xfec7de13, 0xf52f62cd, 0xf2cb6dc8, 0x3422f016, 0x4df2b729,
    0xebf3d867,
];

/// The rows the index sync on each of those views found dirty (per-position
/// negatives touch nearly every row of a 40-node graph per event).
const FLOAT_DIRTY: [usize; 105] = [
    40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40,
    40, 40, 40, 40, 39, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40,
    40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40,
    40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40,
    40, 40, 40, 40, 40, 40, 40, 40, 40,
];

/// The rows the index sync on each of those views re-projected (at most
/// the dirty ones).
const FLOAT_REHASHED: [usize; 105] = [
    40, 33, 34, 33, 35, 30, 30, 28, 33, 36, 36, 33, 30, 30, 33, 37, 34, 29, 34, 35, 31, 34, 30, 34,
    36, 34, 36, 34, 34, 37, 28, 34, 32, 31, 33, 32, 30, 31, 32, 31, 32, 31, 35, 33, 29, 33, 30, 33,
    34, 30, 34, 32, 34, 31, 32, 31, 32, 27, 32, 35, 27, 32, 32, 28, 34, 30, 34, 27, 30, 34, 30, 32,
    29, 31, 25, 34, 26, 35, 32, 28, 33, 34, 32, 32, 33, 32, 37, 31, 34, 35, 30, 31, 33, 30, 34, 30,
    32, 35, 29, 28, 30, 27, 25, 27, 31,
];

/// `FloatBackend`'s publish sequence: `scenario()` with a publish after
/// bootstrap and after every event, each followed by one empty (flush
/// barrier) publish, and one `AnnBuilder` synced on every view. Pins the
/// bits of every view and what every sync reports as `(total, dirty,
/// rehashed)`: the publish's, then the empty publish's.
#[test]
fn float_publish_sequence_is_pinned() {
    let (mut g, events) = scenario();
    let mut be = spec(BackendKind::Float).cold(g.num_nodes());
    be.bootstrap(&g);
    let mut ann = AnnBuilder::new(AnnConfig::default());
    let (mut views, mut syncs) = (Vec::new(), Vec::new());
    let mut publish = |be: &mut dyn TrainBackend| {
        let view = be.publish_view();
        let (_, rep) = ann.sync(&view);
        let empty = be.publish_view();
        assert!(Arc::ptr_eq(&empty, &view), "an empty publish hands out the same view");
        let (_, again) = ann.sync(&empty);
        assert_eq!(bits_hash(&empty), bits_hash(&view), "an empty publish moves no bit");
        views.push(bits_hash(&view));
        syncs.push([
            (rep.total, rep.dirty, rep.rehashed),
            (again.total, again.dirty, again.rehashed),
        ]);
    };
    publish(&mut *be);
    for &e in &events {
        be.ingest(&mut g, e).unwrap();
        publish(&mut *be);
    }
    assert_eq!(views, FLOAT_VIEW_HASHES);
    let want: [_; 105] =
        std::array::from_fn(|k| [(40, FLOAT_DIRTY[k], FLOAT_REHASHED[k]), (40, 0, 0)]);
    assert_eq!(syncs, want);
}

/// One publish's `(total, dirty, rehashed)` sync reports: the publish's,
/// then the empty publish's.
type Syncs = [(usize, usize, usize); 2];

/// Every view's `f32` bit patterns.
fn bits(view: &Mat<f32>) -> Vec<u32> {
    view.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// `float_publish_sequence_is_pinned`'s drive on `kind`, with the index
/// synced the way `Fold::snapshot` syncs it: told the rows the backend
/// re-rendered ([`TrainBackend::last_delta`] → `AnnBuilder::sync_rows`). A
/// reader holds every third view across the publish that would render into
/// it next, so the clone path runs as well as the reuse path. After every
/// publish the view holds `model`'s bits (driven by hand on the same
/// stream), the sync reports what a full-compare sync reports, and every
/// row's candidates equal the full-compare index's. Returns each view's
/// [`bits_hash`] and its [`Syncs`].
fn delta_publish_sequence<M: EmbeddingModel>(
    kind: BackendKind,
    mut model: M,
) -> (Vec<u32>, Vec<Syncs>) {
    let (mut g, events) = scenario();
    let mut inc =
        IncrementalTrainer::new(g.num_nodes(), &train_cfg(), UpdatePolicy::every_edge(), SEED);
    inc.bootstrap(&g, &mut model);
    let (mut g2, _) = scenario();
    let mut be = spec(kind).cold(g2.num_nodes());
    be.bootstrap(&g2);
    let (mut told, mut full) =
        (AnnBuilder::new(AnnConfig::default()), AnnBuilder::new(AnnConfig::default()));
    let (mut views, mut syncs) = (Vec::new(), Vec::new());
    // Where the rows of the last two publishes' views live, and the
    // reader's view with its bits and the publish it was taken at.
    let mut recent: [*const f32; 2] = [std::ptr::null(); 2];
    let mut reader: Option<(Arc<Mat<f32>>, Vec<u32>, usize)> = None;
    for k in 0..=events.len() {
        if k > 0 {
            inc.ingest(&mut g, events[k - 1], &mut model).unwrap();
            be.ingest(&mut g2, events[k - 1]).unwrap();
        }
        let held = reader.as_ref().map(|(view, _, _)| view.as_slice().as_ptr());
        let mut reports: Syncs = Default::default();
        for report in &mut reports {
            let view = be.publish_view();
            assert_eq!(bits(&view), bits(&model.embedding()), "{kind}: publish {k}");
            let (index, rep) = match be.last_delta() {
                Some((from, rows)) => told.sync_rows(&view, from, rows),
                None => told.sync(&view),
            };
            let (reference, want) = full.sync(&view);
            *report = (rep.total, rep.dirty, rep.rehashed);
            assert_eq!(*report, (want.total, want.dirty, want.rehashed), "{kind}: publish {k}");
            for row in 0..view.rows() {
                for probes in [0, 3] {
                    assert_eq!(
                        index.candidates(view.row(row), probes),
                        reference.candidates(view.row(row), probes),
                        "{kind}: publish {k}, row {row}, {probes} probes"
                    );
                }
            }
        }
        let view = be.publish_view();
        // Two publishes back is the view this one replaced the replaced
        // view of: rendered into unless the reader holds it.
        if k >= 2 {
            let reused = view.as_slice().as_ptr() == recent[0];
            assert_eq!(reused, held != Some(recent[0]), "{kind}: publish {k}");
        }
        recent = [recent[1], view.as_slice().as_ptr()];
        if let Some((held, held_bits, _)) = &reader {
            assert_eq!(bits(held), *held_bits, "{kind}: publish {k} wrote a held view");
        }
        if reader.as_ref().is_some_and(|&(_, _, at)| at + 2 <= k) {
            reader = None;
        }
        if k % 3 == 0 {
            reader = Some((view.clone(), bits(&view), k));
        }
        views.push(bits_hash(&view));
        syncs.push(reports);
    }
    (views, syncs)
}

/// Both backends' publish sequences through the row lists: the float one
/// reproduces the pins unedited.
#[test]
fn delta_publish_sequence_reproduces_the_pins() {
    let (g, _) = scenario();
    let (views, syncs) =
        delta_publish_sequence(BackendKind::Float, OsElmSkipGram::new(g.num_nodes(), ocfg()));
    assert_eq!(views, FLOAT_VIEW_HASHES);
    let want: [_; 105] =
        std::array::from_fn(|k| [(40, FLOAT_DIRTY[k], FLOAT_REHASHED[k]), (40, 0, 0)]);
    assert_eq!(syncs, want);
    let (_, syncs) =
        delta_publish_sequence(BackendKind::FpgaSim, Accelerator::new(g.num_nodes(), ocfg()));
    assert!(syncs.iter().all(|[_, empty]| *empty == (40, 0, 0)), "{syncs:?}");
}

/// The kernel's saturation count is the health signal that does not wait
/// for a shadowed window: zero on a healthy stream, and rising in the
/// unshadowed windows of a backend loaded on the rails (`stream_pin.rs`'s
/// regime: μ = 1, β in ±120, P = 100·I).
#[test]
fn saturations_are_counted_on_every_walk() {
    let (mut g, events) = scenario();
    let mut be = FpgaSimBackend::cold(g.num_nodes(), &spec(BackendKind::FpgaSim));
    be.bootstrap(&g);
    for &e in &events {
        be.ingest(&mut g, e).unwrap();
        be.publish_view();
    }
    assert_eq!(be.saturations(), Some(0), "a healthy stream never saturates");
    assert_eq!(spec(BackendKind::Float).cold(g.num_nodes()).saturations(), None);

    let (mut g, events) = scenario();
    let n = g.num_nodes();
    let cfg = OsElmConfig { mu: 1.0, ..ocfg() };
    let mut rng = Rng64::seed_from_u64(9);
    let beta = (0..n * DIM).map(|_| Q8_24::from_f64((rng.next_f64() - 0.5) * 240.0)).collect();
    let mut p = vec![Q8_24::ZERO; DIM * DIM];
    for i in 0..DIM {
        p[i * DIM + i] = Q8_24::from_f64(100.0);
    }
    let path = tmp("rails.sge");
    save_fixed(&Accelerator::from_raw_parts(n, cfg, beta, p), &path).unwrap();
    let mut be = FpgaSimBackend::load(&path, &spec(BackendKind::FpgaSim)).unwrap();
    let _ = std::fs::remove_file(&path);
    // One event per window: window 0 (the load plus the first event) is
    // shadowed, windows 1 to SHADOW_EVERY − 1 are not.
    let mut counts = vec![be.saturations().unwrap()];
    for &e in &events[..SHADOW_EVERY as usize] {
        be.ingest(&mut g, e).unwrap();
        be.publish_view();
        counts.push(be.saturations().unwrap());
    }
    assert!(counts.windows(2).all(|w| w[1] > w[0]), "every window saturates: {counts:?}");
}

/// The SGE1 model container is an on-disk contract: a store written before a
/// change to the writer must boot after it. Pins every byte `save_state`
/// writes (magic, kind, config blob, shape, words) for both payload kinds.
#[test]
fn save_state_bytes_are_pinned() {
    fn fnv(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }
    let written =
        [(BackendKind::Float, 2u8), (BackendKind::FpgaSim, 3u8)].map(|(kind, kind_byte)| {
            let (mut g, events) = scenario();
            let mut be = spec(kind).cold(g.num_nodes());
            be.bootstrap(&g);
            for &e in &events {
                be.ingest(&mut g, e).unwrap();
            }
            let path = tmp(&format!("pin-{kind}.sge"));
            be.save_state(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(&bytes[..5], [b'S', b'G', b'E', b'1', kind_byte], "{kind}: header");
            (fnv(&bytes), bytes.len())
        });
    assert_eq!(written, [(0x3eca_284e_a9af_88d6, 1736), (0x2c9c_d6e1_79ba_da67, 1732)]);
}

#[test]
fn save_load_replay_is_deterministic() {
    for kind in [BackendKind::Float, BackendKind::FpgaSim] {
        let (mut g, events) = scenario();
        let (head, tail) = events.split_at(events.len() / 2);
        let mut be = spec(kind).cold(g.num_nodes());
        be.bootstrap(&g);
        for &e in head {
            be.ingest(&mut g, e).unwrap();
        }
        let path = tmp(&format!("replay-{kind}.sge"));
        be.save_state(&path).unwrap();

        // Two independent recoveries replaying the same suffix must agree
        // bit-for-bit (fresh driver each time — WAL recovery semantics).
        let mut views = Vec::new();
        for _ in 0..2 {
            // Rebuild the graph state at the snapshot: boot forest + head.
            let (mut gr, _) = scenario();
            for &e in head {
                e.apply(&mut gr).unwrap();
            }
            let mut rec = spec(kind).load(&path).unwrap();
            for &e in tail {
                rec.ingest(&mut gr, e).unwrap();
            }
            let v = rec.publish_view();
            views.push(v.as_slice().to_vec());
        }
        let _ = std::fs::remove_file(&path);
        assert_eq!(views[0], views[1], "{kind}: double replay must be bit-identical");
    }
}

#[test]
fn load_refuses_wrong_backend_kind() {
    let (g, _) = scenario();
    let mut be = spec(BackendKind::Float).cold(g.num_nodes());
    be.bootstrap(&g);
    let path = tmp("kind.sge");
    be.save_state(&path).unwrap();
    let err = spec(BackendKind::FpgaSim).load(&path).err().expect("kind mismatch refused");
    assert!(err.to_string().contains("float"), "error names the writing backend: {err}");
    let mut fx = spec(BackendKind::FpgaSim).cold(g.num_nodes());
    fx.bootstrap(&g);
    fx.save_state(&path).unwrap();
    let err = spec(BackendKind::Float).load(&path).err().expect("kind mismatch refused");
    assert!(err.to_string().contains("fpga-sim"), "error names the writing backend: {err}");
    let _ = std::fs::remove_file(&path);
}

/// A snapshot file is outside input: whatever is wrong with it — a config
/// that parses but fails validation, a shape that disagrees with it, a short
/// section, a flipped header byte — `load` answers an `io::Error` on both
/// kinds, never a panic in a model constructor.
#[test]
fn load_refuses_invalid_snapshots() {
    for kind in [BackendKind::Float, BackendKind::FpgaSim] {
        let (g, _) = scenario();
        let mut be = spec(kind).cold(g.num_nodes());
        be.bootstrap(&g);
        let path = tmp(&format!("invalid-{kind}.sge"));
        be.save_state(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // header (5) + config length (4) + config JSON + N (8) + d (8) + words.
        let cfg_len = u32::from_le_bytes(good[5..9].try_into().unwrap()) as usize;
        let json = std::str::from_utf8(&good[9..9 + cfg_len]).unwrap();
        let with_config = |from: &str, to: &str, dim: u64| {
            assert!(json.contains(from), "{kind}: config blob has no {from}: {json}");
            let json = json.replace(from, to);
            let mut bytes = good[..5].to_vec();
            bytes.extend_from_slice(&(json.len() as u32).to_le_bytes());
            bytes.extend_from_slice(json.as_bytes());
            bytes.extend_from_slice(&good[9 + cfg_len..][..8]);
            bytes.extend_from_slice(&dim.to_le_bytes());
            bytes.extend_from_slice(&good[9 + cfg_len + 16..]);
            bytes
        };
        let flipped = |at: usize| {
            let mut bytes = good.clone();
            bytes[at] ^= 0x20;
            bytes
        };
        let d = DIM as u64;
        let (invalid, eof) = (std::io::ErrorKind::InvalidData, std::io::ErrorKind::UnexpectedEof);
        let cases = [
            ("forgetting 0", with_config("\"forgetting\":1.0", "\"forgetting\":0.0", d), invalid),
            ("mu < 0", with_config("\"mu\":0.05", "\"mu\":-0.05", d), invalid),
            ("dim 0", with_config("\"dim\":8", "\"dim\":0", 0), invalid),
            ("d disagrees with the config", with_config("\"dim\":8", "\"dim\":8", d + 1), invalid),
            ("truncated P", good[..good.len() - 7].to_vec(), eof),
            ("flipped magic", flipped(1), invalid),
            ("flipped kind", flipped(4), invalid),
        ];
        for (what, bytes, expected) in cases {
            std::fs::write(&path, bytes).unwrap();
            let err = spec(kind).load(&path).err().unwrap_or_else(|| panic!("{kind}: {what}"));
            assert_eq!(err.kind(), expected, "{kind}: {what}: {err}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
