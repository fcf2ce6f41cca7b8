//! Property tests for the write-ahead log.
//!
//! The WAL is the durability contract of the serve plane: whatever bytes a
//! crash leaves behind, the scanner must recover exactly the acknowledged
//! prefix — never panic, never resurrect a torn record, never apply a
//! duplicate twice. These tests drive the record codec and the recovery
//! path through arbitrary event streams, every possible truncation point,
//! every single-byte corruption, and fabricated duplicate-sequence tails.

use proptest::prelude::*;
use seqge_backend::{BackendSpec, TrainBackend};
use seqge_core::model::EmbeddingModel;
use seqge_core::{OsElmConfig, TrainConfig};
use seqge_graph::generators::classic::erdos_renyi;
use seqge_graph::{spanning_forest, EdgeEvent};
use seqge_sampling::UpdatePolicy;
use seqge_serve::wal::{encode_record, read_segment, FsyncPolicy, Wal, WalConfig, MAGIC};
use seqge_serve::FaultInjector;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const DIM: usize = 4;
const SEED: u64 = 5;

fn train_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::paper_defaults(DIM);
    cfg.walk.walk_length = 8;
    cfg.walk.walks_per_node = 1;
    cfg
}

/// A unique scratch path per call (proptest cases run many per test).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("seqge_walprop_{}_{tag}_{n}", std::process::id()))
}

fn event(kind_add: bool, u: u32, v: u32) -> EdgeEvent {
    if kind_add {
        EdgeEvent::Add(u, v)
    } else {
        EdgeEvent::Remove(u, v)
    }
}

/// Builds raw segment bytes (header + encoded records, seqs 1..=n).
fn segment_bytes(events: &[(bool, u32, u32)]) -> Vec<u8> {
    let mut buf = MAGIC.to_vec();
    for (i, &(k, u, v)) in events.iter().enumerate() {
        buf.extend_from_slice(&encode_record(i as u64 + 1, event(k, u, v)));
    }
    buf
}

fn write_file(path: &Path, bytes: &[u8]) {
    let mut f = std::fs::File::create(path).unwrap();
    f.write_all(bytes).unwrap();
}

/// Commits a store over the spanning forest of a small random graph and
/// appends `events` through the real append path; returns the held-out
/// edges that were appended.
fn committed_store(dir: &Path, graph_seed: u64, take: usize) -> Vec<(u32, u32)> {
    let full = erdos_renyi(12, 0.3, graph_seed);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let mut backend = spec().cold(initial.num_nodes());
    backend.bootstrap(&initial);
    let wcfg = WalConfig { dir: dir.to_path_buf(), fsync: FsyncPolicy::Never };
    let wal = Wal::init(&wcfg, &*backend, &initial).unwrap();
    let none = FaultInjector::disabled();
    let edges: Vec<(u32, u32)> = split.removed_edges.into_iter().take(take).collect();
    for &(u, v) in &edges {
        wal.append_then(EdgeEvent::Add(u, v), &none, |_seq| Ok::<(), ()>(())).unwrap();
    }
    edges
}

fn ocfg() -> OsElmConfig {
    OsElmConfig { model: train_cfg().model, ..OsElmConfig::paper_defaults(DIM) }
}

fn spec() -> BackendSpec {
    BackendSpec::float(train_cfg(), ocfg(), UpdatePolicy::every_edge(), SEED)
}

fn recover(dir: &Path) -> seqge_serve::WalBoot {
    let wcfg = WalConfig { dir: dir.to_path_buf(), fsync: FsyncPolicy::Never };
    Wal::recover(&wcfg, &spec(), 0).expect("recovery reads the store").expect("store is committed")
}

fn embedding_bits(backend: &mut dyn TrainBackend) -> Vec<u32> {
    backend.publish_view().as_slice().iter().map(|x| x.to_bits()).collect()
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Scanning a cleanly written segment recovers every record exactly.
    #[test]
    fn scan_roundtrips_arbitrary_event_streams(
        events in proptest::collection::vec((any::<bool>(), 0u32..100, 0u32..100), 0..40),
    ) {
        let path = scratch("roundtrip");
        write_file(&path, &segment_bytes(&events));
        let scan = read_segment(&path).unwrap();
        prop_assert!(!scan.torn);
        prop_assert_eq!(scan.records.len(), events.len());
        for (i, (rec, &(k, u, v))) in scan.records.iter().zip(&events).enumerate() {
            prop_assert_eq!(rec.seq, i as u64 + 1);
            prop_assert_eq!(rec.event, event(k, u, v));
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Truncation at *every* byte offset yields exactly the records that
    /// fit, flags the tail as torn iff the cut is mid-record, and never
    /// panics — the on-disk aftermath of kill -9 at any instant.
    #[test]
    fn any_truncation_yields_a_clean_record_prefix(
        events in proptest::collection::vec((any::<bool>(), 0u32..100, 0u32..100), 1..12),
    ) {
        let bytes = segment_bytes(&events);
        // Record boundaries: offsets at which a cut is *not* torn.
        let mut boundaries = vec![MAGIC.len()];
        let mut off = MAGIC.len();
        for _ in &events {
            off += 25; // 4 len + 4 crc + 17 payload
            boundaries.push(off);
        }
        prop_assert_eq!(off, bytes.len());
        let path = scratch("trunc");
        for cut in 0..=bytes.len() {
            write_file(&path, &bytes[..cut]);
            let scan = read_segment(&path).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            prop_assert_eq!(scan.records.len(), whole, "cut at {}", cut);
            let expect_torn = !boundaries.contains(&cut);
            prop_assert_eq!(scan.torn, expect_torn, "cut at {}", cut);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Flipping any single byte never panics; the scan still returns a
    /// prefix of the original records (a corrupted record and everything
    /// after it are dropped, nothing is invented). Flips inside the magic
    /// are a hard error — that file was never a WAL segment.
    #[test]
    fn any_single_byte_flip_is_survivable(
        events in proptest::collection::vec((any::<bool>(), 0u32..100, 0u32..100), 1..8),
        flip in any::<u8>(),
    ) {
        let bytes = segment_bytes(&events);
        let clean: Vec<_> = {
            let path = scratch("flipref");
            write_file(&path, &bytes);
            let s = read_segment(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            s.records
        };
        let flip = if flip == 0 { 0xFF } else { flip };
        let path = scratch("flip");
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            write_file(&path, &corrupt);
            match read_segment(&path) {
                Err(_) => prop_assert!(i < MAGIC.len(), "only a magic flip may hard-error"),
                Ok(scan) => {
                    prop_assert!(
                        scan.records.len() <= clean.len(),
                        "flip at {} invented records", i
                    );
                    prop_assert_eq!(
                        &scan.records[..],
                        &clean[..scan.records.len()],
                        "flip at {} must leave a clean prefix", i
                    );
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Duplicate sequence numbers in the log (a retry that was already
    /// logged, or a fabricated replay) are skipped: recovery of a store
    /// with duplicated records is bit-identical to recovery without them,
    /// and recovering twice is bit-identical too (replay is read-only).
    #[test]
    fn duplicate_records_are_idempotent(graph_seed in 0u64..500) {
        let dir = scratch("dup");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = committed_store(&dir, graph_seed, 6);
        prop_assume!(edges.len() >= 2);
        let pristine = scratch("dup_ref");
        copy_dir(&dir, &pristine);

        // Duplicate every record by appending the whole record region again.
        let seg = dir.join("wal.0.log");
        let bytes = std::fs::read(&seg).unwrap();
        let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&bytes[MAGIC.len()..]).unwrap();
        drop(f);

        let mut with_dups = recover(&dir);
        let mut reference = recover(&pristine);
        prop_assert_eq!(with_dups.report.duplicates, edges.len() as u64);
        prop_assert_eq!(with_dups.report.replayed, reference.report.replayed);
        prop_assert_eq!(
            embedding_bits(with_dups.backend.as_mut()),
            embedding_bits(reference.backend.as_mut())
        );
        prop_assert_eq!(with_dups.graph.num_edges(), reference.graph.num_edges());

        // Replay is read-only modulo tail healing: a second recovery of the
        // same store reproduces the same state.
        drop(with_dups);
        let mut again = recover(&dir);
        prop_assert_eq!(
            embedding_bits(again.backend.as_mut()),
            embedding_bits(reference.backend.as_mut())
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&pristine).unwrap();
    }
}

/// A committed store whose segment never saw an append (header only), and
/// one whose segment was wiped to zero bytes (created, never flushed):
/// both recover to exactly the snapshot state.
#[test]
fn empty_and_zero_byte_segments_recover_to_snapshot_state() {
    for wipe in [false, true] {
        let dir = scratch(if wipe { "zero" } else { "empty" });
        std::fs::create_dir_all(&dir).unwrap();
        committed_store(&dir, 3, 0);
        if wipe {
            std::fs::File::create(dir.join("wal.0.log")).unwrap();
        }
        let mut boot = recover(&dir);
        assert_eq!(boot.report.replayed, 0);
        assert_eq!(boot.report.torn_tail, wipe, "sub-header file counts as torn");
        assert_eq!(boot.report.next_seq, 1);
        // The recovered model is the committed gen-0 snapshot, bit for bit.
        let m = seqge_core::persist::load_oselm(dir.join("model.0.sge")).unwrap();
        let snapshot_bits: Vec<u32> =
            m.embedding().as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(embedding_bits(boot.backend.as_mut()), snapshot_bits);
        // And the healed log accepts appends again.
        boot.wal
            .append_then(EdgeEvent::Add(0, 1), &FaultInjector::disabled(), |_| Ok::<(), ()>(()))
            .unwrap();
        assert_eq!(boot.wal.appended(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A failed fsync under `FsyncPolicy::Always` refuses the append after its
/// record was written and takes the record back out at once: a commit and a
/// crash right after the refusal recover only the acked record, and in a
/// live log the next append reuses the refused seq. Either way recovery
/// replays each acked record once, in ack order.
#[test]
fn failed_fsync_refuses_the_append_and_the_next_one_reuses_its_seq() {
    let dir = scratch("syncfail");
    std::fs::create_dir_all(&dir).unwrap();
    let full = erdos_renyi(12, 0.3, 4);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let mut backend = spec().cold(initial.num_nodes());
    backend.bootstrap(&initial);
    let wcfg = WalConfig { dir: dir.to_path_buf(), fsync: FsyncPolicy::Always };
    let wal = Wal::init(&wcfg, &*backend, &initial).unwrap();
    let (none, fail) =
        (FaultInjector::disabled(), FaultInjector::parse("wal_sync_fail=1.0", 0).unwrap());
    let edges: Vec<EdgeEvent> =
        split.removed_edges.iter().take(3).map(|&(u, v)| EdgeEvent::Add(u, v)).collect();
    assert_eq!(edges.len(), 3, "the graph holds out three edges");
    let mut sent = Vec::new();
    let mut append = |wal: &Wal, event, fault: &FaultInjector| {
        wal.append_then(event, fault, |seq| {
            sent.push(seq);
            Ok::<(), ()>(())
        })
    };
    let logged = || -> Vec<(u64, EdgeEvent)> {
        let scan = read_segment(&dir.join("wal.0.log")).unwrap();
        assert!(!scan.torn);
        scan.records.iter().map(|r| (r.seq, r.event)).collect()
    };

    // Refused, committed, then killed before another append.
    assert_eq!(append(&wal, edges[0], &none).unwrap(), 1);
    let refused = append(&wal, edges[1], &fail).expect_err("the fsync failed");
    assert!(refused.to_string().contains("fsync"), "{refused}");
    assert_eq!((wal.appended(), wal.append_errors()), (1, 1));
    wal.commit().unwrap();
    drop(wal);
    assert_eq!(logged(), [(1, edges[0])], "the refused record is gone at once");
    let boot = Wal::recover(&wcfg, &spec(), 0).unwrap().expect("store is committed");
    assert_eq!((boot.report.replayed, boot.report.duplicates), (1, 0));
    assert_eq!(boot.report.next_seq, 2);
    assert_eq!(boot.graph.num_edges(), initial.num_edges() + 1);

    // Refused again in the recovered log, then the next append takes its seq.
    append(&boot.wal, edges[1], &fail).expect_err("the fsync failed");
    assert_eq!(append(&boot.wal, edges[2], &none).unwrap(), 2, "the refused seq is reused");
    assert_eq!(fail.fired(seqge_serve::FaultPoint::WalSyncFail), 2);
    assert_eq!(sent, [1, 2], "a refused append never reaches the trainer");
    drop(boot);
    assert_eq!(logged(), [(1, edges[0]), (2, edges[2])]);
    let boot = recover(&dir);
    assert_eq!((boot.report.replayed, boot.report.duplicates), (2, 0));
    assert_eq!(boot.report.next_seq, 3);
    assert_eq!(boot.graph.num_edges(), initial.num_edges() + 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
