//! The end-to-end run: boot the real `seqge-serve` daemon in-process (what
//! `seqge serve --wal-dir … --backend …` runs) and drive it over loopback
//! TCP with the repo's own [`Client`] through three phases — `burst`
//! (pipelined churn), `quality`, and `mixed` (a writer beside a reader, each
//! a closed loop). Every reply is checked; the first bad one aborts the run.

use crate::reference::Witness;
use crate::stats;
use crate::stream::ChurnStream;
use crate::workload::Workload;
use crate::Gate;
use seqge_eval::EdgeOp;
use seqge_graph::{EdgeEvent, NodeId};
use seqge_linalg::Mat;
use seqge_sampling::Rng64;
use seqge_serve::{
    boot_wal, start_backend, Client, FsyncPolicy, ServeConfig, ServerHandle, WalBoot, WalConfig,
};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Neighbours asked of every `topk`.
pub const K: usize = 10;
/// Extra LSH probes per band for `topk mode=ann` (the protocol default).
pub const PROBES: usize = 8;
/// Worker threads = connections the phases hold open at once = `nproc` on
/// the box the benchmark was defined on.
const WORKERS: usize = 2;
/// Requests in flight per pipelined write chunk: the trainer's `batch_max`,
/// so a chunk lands as one full training batch.
const WINDOW: usize = 256;
/// Same-block and cross-block pairs scored for `link_auc`, each.
const AUC_PAIRS: usize = 8_000;
/// Nodes queried for `ann_recall_at_10`.
const RECALL_NODES: usize = 400;
/// Of those, nodes whose exact `topk` is checked against a brute-force scan.
const BRUTE_NODES: usize = 20;

fn err(ctx: &str, e: impl std::fmt::Display) -> String {
    format!("{ctx}: {e}")
}

/// The wire line for `event`, carrying a write id like the repo client's own
/// `add_edge` does (so the server's dedup path is on).
pub fn write_line(event: EdgeEvent, seq: u64) -> String {
    let (cmd, (u, v)) = match event {
        EdgeEvent::Add(u, v) => ("add_edge", (u, v)),
        EdgeEvent::Remove(u, v) => ("remove_edge", (u, v)),
    };
    format!(r#"{{"cmd":"{cmd}","u":{u},"v":{v},"client":"bench","seq":{seq}}}"#)
}

/// One connection plus the running totals every phase adds to.
pub struct Session {
    /// The connection (the writer's, in the mixed phase).
    pub client: Client,
    /// Requests sent so far (the `attempted` of the result line). A failed
    /// operation aborts the run, so no failure count is kept.
    pub attempted: u64,
    /// The last `flush` version seen; the next must be higher.
    pub last_version: u64,
    next_seq: u64,
}

impl Session {
    /// A session over a fresh connection.
    pub fn new(client: Client) -> Session {
        Session { client, attempted: 0, last_version: 0, next_seq: 0 }
    }

    /// The wire line for `event` under this session's next write id.
    fn write_line(&mut self, event: EdgeEvent) -> String {
        self.next_seq += 1;
        write_line(event, self.next_seq)
    }

    /// Sends `lines` pipelined, a [`WINDOW`] at a time, and hands every
    /// reply to `on_reply`.
    fn pipelined(
        &mut self,
        lines: &[String],
        mut on_reply: impl FnMut(&str, String) -> Gate<()>,
    ) -> Gate<()> {
        for chunk in lines.chunks(WINDOW) {
            // One write per chunk: the lines reach the worker back to back,
            // so the trainer's queue never runs dry inside a batch.
            self.client.send_line(&chunk.join("\n")).map_err(|e| err("pipelined send", e))?;
            self.attempted += chunk.len() as u64;
            for line in chunk {
                let reply = self.client.recv_line().map_err(|e| err("pipelined recv", e))?;
                if !reply.starts_with(r#"{"ok":true"#) {
                    return Err(format!("request {line} answered {reply}"));
                }
                on_reply(line, reply)?;
            }
        }
        Ok(())
    }

    /// A `flush`, whose version must be above every earlier one.
    pub fn flush(&mut self) -> Gate<u64> {
        self.attempted += 1;
        let v = self.client.flush().map_err(|e| err("flush", e))?;
        if v <= self.last_version {
            return Err(format!("flush version went backwards: {v} after {}", self.last_version));
        }
        self.last_version = v;
        Ok(v)
    }
}

/// Phase one of a cold boot: the bootstrap training pass over the boot
/// graph plus `Wal::init`. Returns the store and the seconds it took.
pub fn boot_store(w: &Workload, stream: &ChurnStream, wal_dir: &Path) -> Gate<(WalBoot, f64)> {
    let graph = stream.boot_graph();
    let wcfg = WalConfig { dir: wal_dir.to_path_buf(), fsync: FsyncPolicy::Never };
    let t0 = Instant::now();
    let boot = boot_wal(&wcfg, Some(graph), &w.spec(), 0).map_err(|e| err("boot_wal", e))?;
    Ok((boot, t0.elapsed().as_secs_f64()))
}

/// Phase two of a cold boot: start the daemon on an ephemeral loopback port
/// and wait for the first `ping` reply. Returns the seconds it took.
pub fn start_server(boot: WalBoot) -> Gate<(ServerHandle, Client, f64)> {
    let t0 = Instant::now();
    let config =
        ServeConfig { workers: WORKERS, wal: Some(Arc::new(boot.wal)), ..Default::default() };
    let handle = start_backend("127.0.0.1:0", boot.graph, boot.backend, config)
        .map_err(|e| err("start_backend", e))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| err("connect", e))?;
    client.ping().map_err(|e| err("first ping", e))?;
    Ok((handle, client, t0.elapsed().as_secs_f64()))
}

/// What the burst phase measured.
pub struct Burst {
    /// Events ÷ (first send → `flush` ack), per slice, as timed.
    pub slice_eps: Vec<f64>,
    /// One segment per slice.
    pub witness: Witness,
}

impl Burst {
    /// Slice rates at the speed of the quiet box.
    pub fn scaled_eps(&self) -> Vec<f64> {
        self.slice_eps.iter().enumerate().map(|(k, eps)| eps / self.witness.speed(k)).collect()
    }
}

/// The burst phase: equal slices of pipelined churn events, each closed by
/// a `flush`, each timed from its first send to the flush ack.
pub fn burst(s: &mut Session, events: &[EdgeEvent], slice_events: usize) -> Gate<Burst> {
    let mut out = Burst { slice_eps: Vec::new(), witness: Witness::default() };
    out.witness.mark();
    for slice in events.chunks(slice_events) {
        let lines: Vec<String> = slice.iter().map(|&e| s.write_line(e)).collect();
        let t0 = Instant::now();
        s.pipelined(&lines, |_, _| Ok(()))?;
        s.flush()?;
        out.slice_eps.push(slice.len() as f64 / t0.elapsed().as_secs_f64());
        out.witness.mark();
    }
    Ok(out)
}

/// Latency samples, each tagged with the witness segment it ended in.
pub type Tagged = Vec<(u32, f32)>;

/// The samples as timed.
pub fn raw(samples: &Tagged) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v as f64).collect()
}

/// The samples at the speed of the quiet box: a latency measured while the
/// machine ran at speed `s` would have been `s` times as long there.
pub fn scaled(samples: &Tagged, witness: &Witness) -> Vec<f64> {
    samples.iter().map(|&(k, v)| v as f64 * witness.speed(k as usize)).collect()
}

/// How often each loop of the mixed phase stops to run the witness kernel.
const SEGMENT: Duration = Duration::from_millis(250);

/// What the writer measured. Latencies run from a request's send to its
/// reply.
#[derive(Default)]
pub struct Writes {
    /// `add_edge`/`remove_edge` send → ack of the `flush` that follows it
    /// (read-your-write), ms.
    pub visible_ms: Tagged,
    /// Write send → its own ack, µs.
    pub write_ack_us: Tagged,
    /// A `ping` before every write, µs: the loopback round trip while the
    /// server is as busy as it is for the requests the ledger explains (on
    /// an idle daemon it reads 2–3× higher: the vCPUs doze off).
    pub ping_us: Vec<f64>,
    /// The writer thread's own witness: one segment per [`SEGMENT`].
    pub witness: Witness,
}

/// What the reader measured.
#[derive(Default)]
pub struct Reads {
    /// Exact `topk`, ms.
    pub topk_exact_ms: Tagged,
    /// `topk mode=ann`, ms.
    pub topk_ann_ms: Tagged,
    /// `get_embedding`, µs.
    pub get_embedding_us: Tagged,
    /// `score_link`, µs.
    pub score_link_us: Tagged,
    /// The reader thread's own witness: the two loops tend to sit on
    /// different vCPUs, and the slow state is per core.
    pub witness: Witness,
}

impl Reads {
    /// Reads answered.
    pub fn count(&self) -> usize {
        self.topk_exact_ms.len()
            + self.topk_ann_ms.len()
            + self.get_embedding_us.len()
            + self.score_link_us.len()
    }
}

/// What the mixed phase measured.
pub struct Mixed {
    /// The writer's side.
    pub writes: Writes,
    /// The reader's side.
    pub reads: Reads,
}

/// The reader: back-to-back queries — 50 % `get_embedding`, 20 % `topk
/// mode=ann`, 20 % exact `topk`, 10 % `score_link`, nodes uniform, all
/// fixed by `seed` — until `stop` is raised.
fn reader(addr: SocketAddr, nodes: usize, seed: u64, stop: &AtomicBool) -> Gate<Reads> {
    let mut client = Client::connect(addr).map_err(|e| err("reader connect", e))?;
    let mut rng = Rng64::seed_from_u64(seed ^ 0x7EAD);
    let mut r = Reads::default();
    while !stop.load(Ordering::Relaxed) {
        let segment = r.witness.current(SEGMENT) as u32;
        let node = rng.gen_index(nodes) as NodeId;
        let other = rng.gen_index(nodes) as NodeId;
        let pick = rng.gen_below(10);
        let sent = Instant::now();
        let (samples, unit) = match pick {
            0..=4 => {
                client.get_embedding(node).map_err(|e| err("get_embedding", e))?;
                (&mut r.get_embedding_us, 1e6)
            }
            5..=6 => {
                client.topk_ann(node, K, EdgeOp::Cosine, PROBES).map_err(|e| err("topk ann", e))?;
                (&mut r.topk_ann_ms, 1e3)
            }
            7..=8 => {
                client.topk(node, K, EdgeOp::Cosine).map_err(|e| err("topk", e))?;
                (&mut r.topk_exact_ms, 1e3)
            }
            _ => {
                client.score_link(node, other, EdgeOp::Cosine).map_err(|e| err("score_link", e))?;
                (&mut r.score_link_us, 1e6)
            }
        };
        samples.push((segment, (sent.elapsed().as_secs_f64() * unit) as f32));
    }
    r.witness.mark();
    Ok(r)
}

/// The writer: back-to-back churn events, each preceded by a `ping` and
/// followed by a `flush`, so every write is also a read-your-write probe.
/// Stops at `deadline` or when `events` run out.
fn writer(s: &mut Session, events: &[EdgeEvent], deadline: Instant) -> Gate<Writes> {
    let mut w = Writes::default();
    for &event in events {
        if Instant::now() >= deadline {
            break;
        }
        let segment = w.witness.current(SEGMENT) as u32;
        let line = s.write_line(event);
        let sent = Instant::now();
        s.client.ping().map_err(|e| err("ping", e))?;
        w.ping_us.push(sent.elapsed().as_secs_f64() * 1e6);
        let sent = Instant::now();
        s.attempted += 2;
        s.client.call(&line).map_err(|e| err("write", e))?;
        w.write_ack_us.push((segment, (sent.elapsed().as_secs_f64() * 1e6) as f32));
        s.flush()?;
        w.visible_ms.push((segment, (sent.elapsed().as_secs_f64() * 1e3) as f32));
    }
    w.witness.mark();
    Ok(w)
}

/// The mixed phase, `seconds` long: this thread is the writer, a second
/// thread the reader, each a closed loop on its own connection, each
/// stopping every [`SEGMENT`] to run the witness kernel.
///
/// Closed, not paced: on the 2-vCPU VM the benchmark was defined on, a
/// request sent after as little as 10 ms of idleness pays 2–3 ms of vCPU
/// wake-up per hop (a `ping` costs 27 µs back to back and 2.5 ms paced), so
/// a paced client measures the hypervisor. Two busy connections keep both
/// vCPUs awake and the latencies are the server's.
pub fn mixed(
    s: &mut Session,
    addr: SocketAddr,
    events: &[EdgeEvent],
    nodes: usize,
    seconds: f64,
    seed: u64,
) -> Gate<Mixed> {
    let stop = AtomicBool::new(false);
    let (written, read) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(addr, nodes, seed, &stop));
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let written = writer(s, events, deadline);
        stop.store(true, Ordering::Relaxed);
        (written, reader.join().map_err(|_| "reader thread panicked".to_string()))
    });
    let mixed = Mixed { writes: written?, reads: read?? };
    s.attempted += mixed.reads.count() as u64;
    Ok(mixed)
}

/// What the quality phase measured.
pub struct Quality {
    /// AUC of `score_link` cosine, same-block pairs against cross-block.
    pub link_auc: f64,
    /// Mean overlap of `topk mode=ann` with exact `topk`, k = 10.
    pub ann_recall_at_10: f64,
}

/// A node of `u`'s block other than `u`.
fn block_peer(rng: &mut Rng64, u: NodeId, nodes: usize, blocks: usize) -> NodeId {
    let b = blocks as NodeId;
    let size = (nodes as NodeId - 1 - u % b) / b + 1;
    loop {
        let v = u % b + b * rng.gen_below(size as u64) as NodeId;
        if v != u {
            return v;
        }
    }
}

/// Every embedding row, fetched with pipelined `get_embedding`s.
fn fetch_rows(s: &mut Session, nodes: usize, dim: usize) -> Gate<Mat<f32>> {
    let lines: Vec<String> =
        (0..nodes).map(|v| format!(r#"{{"cmd":"get_embedding","node":{v}}}"#)).collect();
    let mut data = Vec::with_capacity(nodes * dim);
    s.pipelined(&lines, |line, reply| {
        let value: serde_json::Value =
            serde_json::from_str(&reply).map_err(|e| err("get_embedding reply", e))?;
        let row = value
            .get("embedding")
            .and_then(serde_json::Value::as_array)
            .filter(|row| row.len() == dim && row.iter().all(|x| x.as_f64().is_some()))
            .ok_or_else(|| format!("request {line} answered {reply}"))?;
        data.extend(row.iter().filter_map(|x| x.as_f64()).map(|x| x as f32));
        Ok(())
    })?;
    Ok(Mat::from_vec(nodes, dim, data))
}

/// The exact top-`K` of `node` by a full scan of `emb`, ordered like the
/// server orders it: best score first, ties by ascending id.
fn brute_topk(emb: &Mat<f32>, node: NodeId) -> Vec<(NodeId, f64)> {
    let mut scored: Vec<(NodeId, f64)> = (0..emb.rows() as NodeId)
        .filter(|&v| v != node)
        .map(|v| (v, EdgeOp::Cosine.score(emb, node, v)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(K);
    scored
}

/// The quality phase, on a quiescent server: link-prediction AUC over
/// seed-fixed pairs, ANN recall over seed-fixed nodes, and the exact-`topk`
/// correctness check against a brute-force scan of fetched rows.
pub fn quality(s: &mut Session, stream: &ChurnStream, dim: usize, seed: u64) -> Gate<Quality> {
    let (n, blocks) = (stream.nodes, stream.blocks);
    let mut rng = Rng64::seed_from_u64(seed ^ 0x0A0C);
    let mut score = |u: NodeId, v: NodeId| {
        s.client.score_link(u, v, EdgeOp::Cosine).map_err(|e| err("score_link", e))
    };
    let (mut same, mut cross) = (Vec::new(), Vec::new());
    while same.len() < AUC_PAIRS {
        let u = rng.gen_index(n) as NodeId;
        same.push(score(u, block_peer(&mut rng, u, n, blocks))?);
    }
    while cross.len() < AUC_PAIRS {
        let (u, v) = (rng.gen_index(n) as NodeId, rng.gen_index(n) as NodeId);
        if u as usize % blocks != v as usize % blocks {
            cross.push(score(u, v)?);
        }
    }
    s.attempted += 2 * AUC_PAIRS as u64;

    let emb = fetch_rows(s, n, dim)?;
    let mut overlap = 0usize;
    for i in 0..RECALL_NODES {
        let node = rng.gen_index(n) as NodeId;
        let exact = s.client.topk(node, K, EdgeOp::Cosine).map_err(|e| err("topk", e))?;
        let ann =
            s.client.topk_ann(node, K, EdgeOp::Cosine, PROBES).map_err(|e| err("topk ann", e))?;
        s.attempted += 2;
        overlap += ann.iter().filter(|(v, _)| exact.iter().any(|(x, _)| x == v)).count();
        if i < BRUTE_NODES {
            let brute = brute_topk(&emb, node);
            let same_ids = exact.iter().map(|x| x.0).eq(brute.iter().map(|x| x.0));
            let same_scores = exact.iter().zip(&brute).all(|(a, b)| (a.1 - b.1).abs() <= 1e-12);
            if !(same_ids && same_scores) {
                return Err(format!(
                    "topk({node}) = {exact:?}, a brute-force scan gives {brute:?}"
                ));
            }
        }
    }
    Ok(Quality {
        link_auc: stats::auc(&same, &cross),
        ann_recall_at_10: overlap as f64 / (RECALL_NODES * K) as f64,
    })
}

/// Reconciles the server's own counters with what the run sent: every event
/// applied, none rejected, inserts/removes matching the stream, every write
/// confirmed visible. The server was handed a backend that had already
/// ingested the stream's first `before` events, and was then sent the next
/// `sent`.
pub fn reconcile(
    s: &mut Session,
    handle: &ServerHandle,
    stream: &ChurnStream,
    before: usize,
    sent: usize,
) -> Gate<()> {
    let stats = s.client.stats().map_err(|e| err("stats", e))?;
    let total = before + sent;
    let adds = stream.events[..total].iter().filter(|e| matches!(e, EdgeEvent::Add(..))).count();
    let expect = [
        ("applied", sent),
        ("rejected", 0),
        ("enqueued", sent),
        ("pending", 0),
        ("deduped", 0),
        ("overloaded", 0),
        ("wal_appends", before + sent),
        ("wal_append_errors", 0),
        ("edges_inserted", adds),
        ("edges_removed", total - adds),
        ("edges", stream.boot.len() + 2 * adds - total),
    ];
    for (key, want) in expect {
        let got = stats.get(key).and_then(serde_json::Value::as_u64);
        if got != Some(want as u64) {
            return Err(format!("server counter {key} = {got:?}, the stream says {want}"));
        }
    }
    let visible = handle.stats().writes_visible.get();
    if visible != sent as u64 {
        return Err(format!("writes_visible = {visible}, sent {sent}"));
    }
    Ok(())
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> Gate<f64> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| err("/proc/self/status", e))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
