//! Golden parity: the trait refactor must change *nothing* about what gets
//! trained.
//!
//! * [`FloatBackend`] vs. driving `OsElmSkipGram` + `IncrementalTrainer` by
//!   hand (the pre-refactor serve trainer) — snapshot **bytes** compared.
//! * [`FpgaSimBackend`] vs. the offline `seqge-fpga` functional execution of
//!   the same event stream — raw Q8.24 words compared.
//! * fpga-sim's float shadow must not perturb the accelerator's RNG stream.
//! * Save → load → replay is deterministic (the WAL recovery contract).
//! * The bytes `save_state` writes — the SGE1 container — are pinned by hash.

use seqge_backend::{BackendKind, BackendSpec, FpgaSimBackend, TrainBackend};
use seqge_core::model::EmbeddingModel;
use seqge_core::{persist, IncrementalTrainer, OsElmConfig, OsElmSkipGram, TrainConfig};
use seqge_fpga::Accelerator;
use seqge_graph::generators::classic::erdos_renyi;
use seqge_graph::{spanning_forest, EdgeEvent, Graph};
use seqge_sampling::UpdatePolicy;
use std::path::PathBuf;

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
