//! Chaos suite: kill -9 a real WAL-backed server under fault injection and
//! prove every *acknowledged* write survives, bit-identically.
//!
//! The server under test is the `chaosd` binary (in-process threads cannot
//! be SIGKILLed selectively), booted from a store this test commits with
//! `Wal::init`. The scenario per seed:
//!
//! 1. stream edges at daemon A, which runs with torn writes, append
//!    errors, dropped/stalled connections, and trainer panics armed;
//!    record which writes were acknowledged;
//! 2. SIGKILL A mid-stream (or as soon as an injected trainer panic makes
//!    it unresponsive);
//! 3. vandalize the log tail by hand — a duplicate-sequence record plus a
//!    torn partial record — so recovery must exercise both skip paths;
//! 4. recover the same bytes twice: in-process (`Wal::recover`, the
//!    reference) and as daemon B; they must agree bit for bit, and every
//!    acknowledged add must be present in the recovered graph;
//! 5. keep streaming the rest of the edges at B (connection faults still
//!    armed, so the client's retry + dedup machinery runs hot) while
//!    mirroring each event into the reference trainer, then compare all
//!    embeddings bit for bit again.
//!
//! Seeds come from `SEQGE_FAULT_SEED` (comma-separated; CI fans a matrix
//! of single seeds, the local default covers two schedules). Every fault
//! decision is a pure hash of `(seed, point, visit)`, so a failing seed
//! fails the same way every run.

use seqge_backend::{BackendKind, BackendSpec, TrainBackend};
use seqge_graph::generators::classic::erdos_renyi;
use seqge_graph::{spanning_forest, EdgeEvent};
use seqge_serve::wal::{self, FsyncPolicy, Wal, WalConfig};
use seqge_serve::{ready, Client, ClientConfig};
use std::io::Seek;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const DIM: usize = 8;
const SEED: u64 = 11;

/// The engine under chaos: `SEQGE_BACKEND=fpga-sim` runs the whole kill -9 /
/// bit-identical-recovery suite against the fixed-point backend (the CI
/// backend matrix does exactly that); default is float.
fn backend_kind() -> BackendKind {
    match std::env::var("SEQGE_BACKEND") {
        Ok(s) => BackendKind::parse(&s).expect("SEQGE_BACKEND"),
        Err(_) => BackendKind::Float,
    }
}

/// The daemon's own spec — the reference replay and `chaosd` share the one
/// definition, so they agree on every walk parameter by construction.
fn spec() -> BackendSpec {
    seqge_serve::shard_spec(backend_kind(), DIM, SEED)
}

/// Fault schedules under test (chaos seeds), from `SEQGE_FAULT_SEED`.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("SEQGE_FAULT_SEED") {
        Ok(s) => s
            .split(',')
            .map(|p| p.trim().parse().expect("SEQGE_FAULT_SEED: comma-separated u64s"))
            .collect(),
        Err(_) => vec![1, 2],
    }
}

/// A running chaosd with kill-on-drop (so a failing assert doesn't leak
/// daemons).
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// `flightrec` is where the daemon's crash recorder dumps (a short
    /// period, so even a process that lives under a second leaves a file).
    fn spawn(dir: &Path, flightrec: &Path, faults: &str, seed: u64) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_chaosd"))
            .args(["--dir", dir.to_str().unwrap(), "--addr", "127.0.0.1:0"])
            .args(["--backend", backend_kind().as_str()])
            .env("SEQGE_FLIGHTREC", flightrec)
            .env("SEQGE_FLIGHTREC_PERIOD_MS", "50")
            .env("SEQGE_FAULT", faults)
            .env("SEQGE_FAULT_SEED", seed.to_string())
            .env("SEQGE_FAULT_STALL_MS", "1200")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("chaosd spawns");
        let addr = ready::await_ready(&mut child).expect("chaosd announces readiness").to_string();
        Daemon { child, addr }
    }

    /// SIGKILL — no drain, no final snapshot, exactly the crash we claim
    /// to survive.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// The periodic flight-recorder dump a kill -9'd daemon leaves behind.
    fn flightrec_dump(&self, dir: &Path) -> PathBuf {
        dir.join(format!("flightrec-{}.json", self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill9();
    }
}

fn client(addr: &str, id: &str) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            timeout: Duration::from_millis(800),
            retries: 8,
            client_id: id.to_string(),
            ..ClientConfig::default()
        },
    )
    .expect("client connects")
}

/// Commits a fresh WAL store holding the spanning forest of the test
/// graph; returns the held-out edges to stream.
fn commit_store(dir: &Path) -> Vec<(u32, u32)> {
    let full = erdos_renyi(40, 0.18, 7);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let mut backend = spec().cold(initial.num_nodes());
    backend.bootstrap(&initial);
    let wcfg = WalConfig { dir: dir.to_path_buf(), fsync: FsyncPolicy::Batch };
    Wal::init(&wcfg, &*backend, &initial).expect("store init");
    split.removed_edges
}

/// In-process recovery of a store directory — the reference truth a
/// recovered daemon must match bit for bit.
fn reference_recover(dir: &Path) -> wal::WalBoot {
    let wcfg = WalConfig { dir: dir.to_path_buf(), fsync: FsyncPolicy::Never };
    Wal::recover(&wcfg, &spec(), 0).expect("recovery reads the store").expect("store is committed")
}

/// Appends a duplicate of the segment's last intact record plus a torn
/// partial record, so recovery must take both skip paths. Returns how many
/// intact records precede the vandalism.
fn vandalize_segment(dir: &Path) -> usize {
    let seg = current_segment(dir);
    let scan = wal::read_segment(&seg).expect("segment scans");
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    // Drop any real torn tail first so our fabricated records are reachable.
    f.set_len(scan.valid_bytes.max(wal::MAGIC.len() as u64)).unwrap();
    f.seek(std::io::SeekFrom::End(0)).unwrap();
    if let Some(last) = scan.records.last() {
        f.write_all(&wal::encode_record(last.seq, last.event)).unwrap();
    }
    // A plausible header promising 10 payload bytes, then death after 2.
    f.write_all(&[10, 0, 0, 0, 0xAA, 0xBB, 0xCC, 0xDD, 0xDE, 0xAD]).unwrap();
    f.sync_all().unwrap();
    scan.records.len()
}

fn current_segment(dir: &Path) -> PathBuf {
    let meta = wal::read_meta(dir).expect("meta reads").expect("store committed");
    dir.join(format!("wal.{}.log", meta.segment))
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn embedding_rows(backend: &mut dyn TrainBackend) -> Vec<Vec<f32>> {
    let emb = backend.publish_view();
    (0..emb.rows()).map(|r| emb.as_slice()[r * emb.cols()..(r + 1) * emb.cols()].to_vec()).collect()
}

fn assert_rows_match(c: &mut Client, reference: &[Vec<f32>], when: &str) {
    for (n, want) in reference.iter().enumerate() {
        let got = c.get_embedding(n as u32).unwrap();
        assert_eq!(&got, want, "node {n} embedding differs from reference {when}");
    }
}

#[test]
fn acknowledged_writes_survive_kill9_and_recovery_is_bit_identical() {
    for seed in chaos_seeds() {
        run_chaos_scenario(seed);
    }
}

fn run_chaos_scenario(seed: u64) {
    let base = std::env::temp_dir().join(format!("seqge_chaos_{}_{}", std::process::id(), seed));
    let _ = std::fs::remove_dir_all(&base);
    let store = base.join("store");
    std::fs::create_dir_all(&store).unwrap();
    let edges = commit_store(&store);
    assert!(edges.len() >= 20, "need a real stream, got {} edges", edges.len());

    // Phase 1: hostile daemon A. Everything armed, including panics.
    // CI points SEQGE_FLIGHTREC at the directory it uploads on failure.
    let flightrec =
        std::env::var_os("SEQGE_FLIGHTREC").map_or_else(|| base.join("flightrec"), PathBuf::from);
    let mut a = Daemon::spawn(
        &store,
        &flightrec,
        "conn_drop=0.06,conn_stall=0.02,wal_short_write=0.05,wal_append_error=0.03,trainer_panic=0.005",
        seed,
    );
    let kill_at = edges.len() / 4 + (seed as usize % (edges.len() / 2));
    let mut ca = client(&a.addr, &format!("chaos-a-{seed}"));
    let mut acked: Vec<(u32, u32)> = Vec::new();
    let mut attempted = 0;
    let mut consecutive_errors = 0;
    for &(u, v) in &edges[..kill_at] {
        attempted += 1;
        match ca.add_edge(u, v) {
            Ok(()) => {
                acked.push((u, v));
                consecutive_errors = 0;
            }
            // Injected WAL failures surface as hard errors — that write
            // carries no durability promise, move on. A dead trainer stays
            // dead, so stop talking to A entirely (also after a run of
            // errors: retry backoff on a corpse just burns wall clock).
            Err(e) => {
                consecutive_errors += 1;
                if e.to_string().contains("trainer is shut down") || consecutive_errors >= 3 {
                    break;
                }
            }
        }
    }
    drop(ca);
    // Forensics survive the kill: the recorder is armed in the daemon and
    // has dumped at least once by now (poll briefly: the first period may
    // not have elapsed if the trainer panicked at once).
    let dump = a.flightrec_dump(&flightrec);
    for _ in 0..100 {
        if dump.is_file() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    a.kill9();
    assert!(dump.is_file(), "seed {seed}: kill -9'd daemon left no {}", dump.display());
    assert!(
        !acked.is_empty(),
        "seed {seed}: no write was ever acknowledged in {attempted} attempts"
    );

    // Phase 2: vandalize the tail, then recover the same bytes two ways.
    vandalize_segment(&store);
    let copy = base.join("reference");
    copy_dir(&store, &copy);
    let mut reference = reference_recover(&copy);
    assert!(reference.report.torn_tail, "seed {seed}: fabricated torn tail not seen");
    assert!(
        reference.report.duplicates >= 1 || acked.is_empty(),
        "seed {seed}: fabricated duplicate record not counted"
    );
    for &(u, v) in &acked {
        assert!(
            reference.graph.has_edge(u, v),
            "seed {seed}: acknowledged add ({u},{v}) lost by recovery"
        );
    }

    // Phase 3: daemon B on the vandalized store. Connection faults stay
    // armed (retry + dedup must hold up); WAL/trainer faults are disarmed
    // so the reference mirror below sees the same apply stream.
    let mut b =
        Daemon::spawn(&store, &flightrec, "conn_drop=0.06,conn_stall=0.02", seed ^ 0xC0FFEE);
    let mut cb = client(&b.addr, &format!("chaos-b-{seed}"));
    let stats = cb.stats().unwrap();
    assert_eq!(
        stats.get("wal_replayed").and_then(|v| v.as_u64()),
        Some(reference.report.replayed),
        "seed {seed}: daemon and reference replayed different event counts"
    );
    let frozen = embedding_rows(reference.backend.as_mut());
    assert_rows_match(&mut cb, &frozen, "after recovery");

    // Phase 4: resume the stream. Send every edge A never acknowledged;
    // mirror each into the reference trainer. The two apply streams are
    // identical (dedup collapses retries), so the models must stay
    // bit-identical.
    let todo: Vec<(u32, u32)> = edges.iter().copied().filter(|e| !acked.contains(e)).collect();
    for &(u, v) in &todo {
        cb.add_edge(u, v).unwrap_or_else(|e| {
            panic!("seed {seed}: write ({u},{v}) failed on recovered daemon: {e}")
        });
        let _ = reference.backend.ingest(&mut reference.graph, EdgeEvent::Add(u, v));
    }
    cb.flush().unwrap();
    let warm = embedding_rows(reference.backend.as_mut());
    assert_rows_match(&mut cb, &warm, "after resumed ingest");

    // Every edge is now in: acked-on-A survived the kill, the rest were
    // acked on B.
    let stats = cb.stats().unwrap();
    assert_eq!(
        stats.get("edges").and_then(|v| v.as_u64()),
        Some(reference.graph.num_edges() as u64),
        "seed {seed}: edge counts diverge"
    );
    drop(cb);
    b.kill9();
    let _ = std::fs::remove_dir_all(&base);
}
