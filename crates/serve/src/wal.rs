//! Write-ahead log: crash durability for the serve plane's write path.
//!
//! A snapshot alone loses every write acknowledged since it was taken, so
//! a node's durable state is snapshot *plus* ordered log — the classic
//! recipe:
//!
//! * every accepted edge event is appended to a log segment **before** it
//!   is handed to the trainer, as a length-prefixed, CRC-checksummed,
//!   sequence-numbered record;
//! * recovery loads the newest snapshot generation and replays the
//!   segment's unapplied suffix through the same [`Fold`] step the live
//!   trainer runs, so a recovered server is bit-identical to one that
//!   never crashed;
//! * snapshots rotate the log: a new generation (`model.<g>.sge`,
//!   `graph.<g>.edges`) plus a new segment carrying only unapplied records
//!   are made durable first, then `meta.json` is swapped in by an atomic
//!   rename — the single commit point. A crash anywhere leaves either the
//!   old or the new generation fully intact.
//!
//! ## On-disk layout (`--wal-dir`)
//!
//! ```text
//! meta.json          atomic commit pointer {gen, applied_seq, segment, since_refresh}
//! model.<g>.sge      OS-ELM snapshot, generation g   (core persist format)
//! graph.<g>.edges    graph snapshot, generation g
//! wal.<s>.log        active segment: "SGW1" then records
//! ```
//!
//! Record: `len:u32 | crc32:u32 | payload`, payload =
//! `seq:u64 | kind:u8 (1=add, 2=remove) | u:u32 | v:u32`, all little-endian.
//! A scan stops at the first torn or checksum-failing record; recovery
//! truncates that tail (an append that died mid-write never got acked, so
//! dropping it is correct).
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy::Always`] survives power loss (fsync per append),
//! [`FsyncPolicy::Batch`] survives process crashes unconditionally (the
//! page cache owes nothing to the process) and group-commits against power
//! loss — fsync on a count/age threshold under load, and unconditionally
//! the moment the trainer's queue drains — [`FsyncPolicy::Never`] leaves
//! durability to the OS page cache entirely.

use crate::fault::{FaultInjector, FaultPoint};
use crate::fold::{Applied, Fold};
use seqge_backend::{BackendSpec, TrainBackend};
use seqge_graph::{io as graph_io, EdgeEvent, Graph};
use serde_json::Value;
use std::fs::{File, OpenOptions};
use std::io::{self, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Segment header magic (also the format version).
pub const MAGIC: &[u8; 4] = b"SGW1";

/// Hard cap on one record's payload; a corrupt length field can never make
/// the scanner allocate or skip unboundedly.
pub const MAX_RECORD_BYTES: u32 = 1024;

/// Batch policy: fsync after this many unsynced appends…
const BATCH_FSYNC_EVERY: usize = 64;
/// …or when the oldest unsynced append is this old.
const BATCH_FSYNC_AGE: Duration = Duration::from_millis(25);

/// When to fsync the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync every append before acking (power-loss safe).
    Always,
    /// fsync on a count/age threshold and at batch boundaries
    /// (process-crash safe; bounded loss on power loss).
    Batch,
    /// Never fsync; durability rides on the OS page cache.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "never" => Ok(FsyncPolicy::Never),
            _ => Err(format!("fsync policy `{s}`: want always|batch|never")),
        }
    }

    /// The flag spelling of this policy.
    pub fn as_str(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Where the WAL lives and how hard it syncs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding segments, snapshot generations, and `meta.json`.
    pub dir: PathBuf,
    /// Sync policy for the active segment.
    pub fsync: FsyncPolicy,
}

/// CRC-32 (IEEE, reflected). Bitwise — records are tiny, a table buys
/// nothing here.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One decoded log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotone sequence number assigned at append time (first is 1).
    pub seq: u64,
    /// The logged mutation.
    pub event: EdgeEvent,
}

/// Encodes one record (header + checksummed payload).
pub fn encode_record(seq: u64, event: EdgeEvent) -> Vec<u8> {
    let (kind, (u, v)) = match event {
        EdgeEvent::Add(u, v) => (1u8, (u, v)),
        EdgeEvent::Remove(u, v) => (2u8, (u, v)),
    };
    let mut payload = Vec::with_capacity(17);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.push(kind);
    payload.extend_from_slice(&u.to_le_bytes());
    payload.extend_from_slice(&v.to_le_bytes());
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(&payload).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    if payload.len() != 17 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let u = u32::from_le_bytes(payload[9..13].try_into().ok()?);
    let v = u32::from_le_bytes(payload[13..17].try_into().ok()?);
    let event = match payload[8] {
        1 => EdgeEvent::Add(u, v),
        2 => EdgeEvent::Remove(u, v),
        _ => return None,
    };
    Some(WalRecord { seq, event })
}

/// Why the bytes at a frame boundary are not a record.
enum Corruption {
    /// The length field is zero or above [`MAX_RECORD_BYTES`].
    Length(u32),
    /// The payload does not match its checksum — on a live file possibly a
    /// write caught between header and body.
    Checksum,
    /// The checksum holds but the payload is not a known record.
    Payload,
}

/// The outcome of decoding the frame at the head of a buffer.
enum Frame {
    /// An intact record and the bytes its frame occupies.
    Record(WalRecord, usize),
    /// Fewer bytes than the header, or than the header declares.
    Incomplete,
    /// The bytes present cannot be a record.
    Corrupt(Corruption),
}

/// The one `len | crc32 | payload` decoder. What to do about a frame that
/// is not a record is the caller's policy: [`read_segment`] stops and
/// reports a torn tail, [`SegmentTailer::poll`] waits for more bytes.
fn next_frame(buf: &[u8]) -> Frame {
    if buf.len() < 8 {
        return Frame::Incomplete;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4-byte slice"));
    if len == 0 || len > MAX_RECORD_BYTES {
        return Frame::Corrupt(Corruption::Length(len));
    }
    let end = 8 + len as usize;
    if buf.len() < end {
        return Frame::Incomplete;
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4-byte slice"));
    let payload = &buf[8..end];
    if crc32(payload) != crc {
        return Frame::Corrupt(Corruption::Checksum);
    }
    match decode_payload(payload) {
        Some(rec) => Frame::Record(rec, end),
        None => Frame::Corrupt(Corruption::Payload),
    }
}

/// The result of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Every intact record, in file order.
    pub records: Vec<WalRecord>,
    /// Byte offset of the end of the last intact record (truncation point).
    pub valid_bytes: u64,
    /// Whether the scan stopped before end-of-file (torn tail, bad
    /// checksum, bad length, or unknown record kind).
    pub torn: bool,
}

/// Scans a segment, stopping at the first record that is incomplete or
/// fails its checksum. Never panics on arbitrary bytes past the header.
pub fn read_segment(path: &Path) -> io::Result<SegmentScan> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    if buf.len() < MAGIC.len() {
        // Killed before the header hit the disk: nothing valid yet.
        return Ok(SegmentScan { records: Vec::new(), valid_bytes: 0, torn: true });
    }
    if &buf[..MAGIC.len()] != MAGIC {
        return Err(io::Error::new(ErrorKind::InvalidData, "bad WAL segment magic"));
    }
    let mut records = Vec::new();
    let mut off = MAGIC.len();
    let mut torn = false;
    while off < buf.len() {
        match next_frame(&buf[off..]) {
            Frame::Record(rec, len) => {
                records.push(rec);
                off += len;
            }
            Frame::Incomplete | Frame::Corrupt(_) => {
                torn = true;
                break;
            }
        }
    }
    Ok(SegmentScan { records, valid_bytes: off as u64, torn })
}

/// Incremental reader over a *live* segment file — the replication feed.
///
/// A replica cannot use [`read_segment`] in a loop (quadratic re-reads)
/// or [`Wal::recover`] (it truncates torn tails, which on a live primary
/// are just records mid-write). The tailer instead holds the file open,
/// remembers how far it has consumed, and on each [`SegmentTailer::poll`]
/// decodes every record that has become complete since the last call. An
/// incomplete tail — the primary's `write_all` caught in flight — is kept
/// pending and retried on the next poll. Appends are visible to the
/// tailer as soon as they hit the page cache; the primary's fsync policy
/// affects durability only, not this feed, which is what bounds
/// replication lag to one poll interval.
///
/// Holding the `File` open also survives segment rotation: after
/// [`Wal::commit_snapshot`] unlinks the old segment, the open descriptor
/// still reads every byte that was written to it, so the replica can
/// drain the old generation to EOF before switching to the new segment
/// path (sequence-number dedup absorbs the records the rotation carried
/// forward).
#[derive(Debug)]
pub struct SegmentTailer {
    path: PathBuf,
    file: Option<File>,
    /// Bytes consumed from the file so far (including any held in
    /// `pending`).
    offset: u64,
    pending: Vec<u8>,
    saw_magic: bool,
    /// Consecutive polls stuck on the same undecodable tail.
    stalled: u32,
}

/// Polls a tail can spend on one incomplete record before the tailer
/// declares it corrupt rather than in-flight. At the replica's poll
/// cadence this is tens of seconds — no real `write_all` straddles that.
const TAILER_STALL_LIMIT: u32 = 2_000;

impl SegmentTailer {
    /// Starts tailing `path`. The file need not exist yet — polls return
    /// empty until it appears (the primary creates segments atomically
    /// enough that a visible file always starts with the magic).
    pub fn new(path: PathBuf) -> SegmentTailer {
        SegmentTailer {
            path,
            file: None,
            offset: 0,
            pending: Vec::new(),
            saw_magic: false,
            stalled: 0,
        }
    }

    /// The segment path this tailer follows.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads newly appended bytes and returns every record that is now
    /// complete, in file order. A torn tail is *not* an error — it stays
    /// pending — but a checksum or framing failure that persists across
    /// many polls is reported as `InvalidData`.
    pub fn poll(&mut self) -> io::Result<Vec<WalRecord>> {
        if self.file.is_none() {
            match File::open(&self.path) {
                Ok(f) => self.file = Some(f),
                Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
                Err(e) => return Err(e),
            }
        }
        let file = self.file.as_mut().expect("tailer file open");
        // A recovery pass on the primary may truncate a torn tail we have
        // buffered but not decoded; drop the vanished bytes from pending.
        let len = file.metadata()?.len();
        if len < self.offset {
            let gone = (self.offset - len) as usize;
            if gone > self.pending.len() {
                return Err(bad_data("segment truncated past decoded records"));
            }
            let keep = self.pending.len() - gone;
            self.pending.truncate(keep);
            self.offset = len;
            self.stalled = 0;
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let before = self.pending.len();
        file.read_to_end(&mut self.pending)?;
        self.offset += (self.pending.len() - before) as u64;

        if !self.saw_magic {
            if self.pending.len() < MAGIC.len() {
                return Ok(Vec::new());
            }
            if &self.pending[..MAGIC.len()] != MAGIC {
                return Err(bad_data("bad WAL segment magic"));
            }
            self.pending.drain(..MAGIC.len());
            self.saw_magic = true;
        }

        let mut out = Vec::new();
        let mut consumed = 0usize;
        loop {
            match next_frame(&self.pending[consumed..]) {
                Frame::Record(rec, len) => {
                    out.push(rec);
                    consumed += len;
                    self.stalled = 0;
                }
                Frame::Incomplete => break,
                Frame::Corrupt(Corruption::Checksum) => {
                    // Could be a write caught mid-flight (header landed,
                    // body not yet). Leave it pending; give up only if it
                    // never resolves.
                    self.stalled += 1;
                    if self.stalled > TAILER_STALL_LIMIT {
                        return Err(bad_data("tailer: checksum mismatch persisted"));
                    }
                    break;
                }
                Frame::Corrupt(Corruption::Length(len)) => {
                    self.pending.drain(..consumed);
                    return Err(bad_data(format!("tailer: bad record length {len}")));
                }
                Frame::Corrupt(Corruption::Payload) => {
                    self.pending.drain(..consumed);
                    return Err(bad_data("tailer: undecodable record payload"));
                }
            }
        }
        self.pending.drain(..consumed);
        Ok(out)
    }
}

/// The atomic commit pointer (`meta.json`). A generation/segment exists as
/// far as recovery is concerned only once it is named here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// Current snapshot generation.
    pub gen: u64,
    /// Highest sequence number folded into that snapshot (0 = none).
    pub applied_seq: u64,
    /// Active segment number.
    pub segment: u64,
    /// Trainer's `events_since_refresh` at snapshot time, so the
    /// `--refresh-every` cadence replays exactly.
    pub since_refresh: u64,
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.json")
}

fn model_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("model.{gen}.sge"))
}

fn graph_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("graph.{gen}.edges"))
}

/// Where segment `seg` of the store in `dir` lives.
pub fn segment_path(dir: &Path, seg: u64) -> PathBuf {
    dir.join(format!("wal.{seg}.log"))
}

fn fsync_dir(dir: &Path) {
    // Directory fsync makes the rename itself durable; POSIX-only, and
    // best-effort (some filesystems refuse it).
    #[cfg(unix)]
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    #[cfg(not(unix))]
    let _ = dir;
}

fn fsync_path(path: &Path) -> io::Result<()> {
    File::open(path)?.sync_all()
}

fn bad_data(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.to_string())
}

/// Reads `meta.json`; `Ok(None)` means the directory has never committed
/// (fresh store).
pub fn read_meta(dir: &Path) -> io::Result<Option<Meta>> {
    let path = meta_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let v: Value = serde_json::from_str(&text).map_err(|e| bad_data(format!("meta.json: {e}")))?;
    let field = |k: &str| {
        v.get(k).and_then(Value::as_u64).ok_or_else(|| bad_data(format!("meta.json: bad `{k}`")))
    };
    Ok(Some(Meta {
        gen: field("gen")?,
        applied_seq: field("applied_seq")?,
        segment: field("segment")?,
        since_refresh: field("since_refresh")?,
    }))
}

/// Writes `meta.json` atomically: temp file, fsync, rename, directory
/// fsync. This is the commit point for snapshot rotation.
pub fn write_meta(dir: &Path, meta: Meta) -> io::Result<()> {
    let fields = vec![
        ("gen".to_string(), Value::U64(meta.gen)),
        ("applied_seq".to_string(), Value::U64(meta.applied_seq)),
        ("segment".to_string(), Value::U64(meta.segment)),
        ("since_refresh".to_string(), Value::U64(meta.since_refresh)),
    ];
    let text = serde_json::to_string(&Value::Object(fields)).expect("meta serializes");
    let tmp = dir.join("meta.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, meta_path(dir))?;
    fsync_dir(dir);
    Ok(())
}

/// What recovery did, for logs, the `stats` op, and the chaos assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Snapshot generation restored.
    pub gen: u64,
    /// Segment replayed.
    pub segment: u64,
    /// Events replayed into the model.
    pub replayed: u64,
    /// Records skipped because the snapshot already covered them
    /// (`seq <= applied_seq`).
    pub skipped_applied: u64,
    /// Records skipped as duplicate/out-of-order sequence numbers.
    pub duplicates: u64,
    /// Replayed events the graph rejected (duplicate add, missing remove —
    /// e.g. a retried write that was already applied before the crash).
    pub rejected: u64,
    /// Whether a torn tail was found (and truncated).
    pub torn_tail: bool,
    /// Corpus refreshes triggered during replay by the restored
    /// `--refresh-every` cadence.
    pub refreshes: u64,
    /// `events_since_refresh` after replay (carried into the live trainer).
    pub since_refresh: u64,
    /// Next sequence number to assign.
    pub next_seq: u64,
}

/// A recovered (or freshly initialised) store, ready to serve.
pub struct WalBoot {
    /// The graph as of snapshot + replay.
    pub graph: Graph,
    /// The training backend that performed the replay (model state as of
    /// snapshot + replay, plus the walk corpus/negative-table state the live
    /// trainer continues from).
    pub backend: Box<dyn TrainBackend>,
    /// The open log, ready for appends.
    pub wal: Wal,
    /// What recovery did.
    pub report: RecoveryReport,
}

struct Inner {
    file: File,
    segment: u64,
    gen: u64,
    /// End offset of the last record written and synced as the policy
    /// requires; anything past this is left by a failed append (a torn
    /// write or a failed sync) and truncated before the next write.
    tail_valid: u64,
    /// Appends since the last fsync.
    dirty: usize,
    last_sync: Instant,
    next_seq: u64,
}

/// The open write-ahead log. One per server; all appends serialize on an
/// internal lock so log order always equals trainer-channel order.
pub struct Wal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    inner: Mutex<Inner>,
    report: RecoveryReport,
    appended: AtomicU64,
    append_errors: AtomicU64,
    fsyncs: AtomicU64,
    rotations: AtomicU64,
}

/// Writes snapshot generation `gen` (the backend's model state + `graph`)
/// durably, temp-file-then-rename so a crash mid-write never leaves half a
/// file under a generation's name. The generation only counts once
/// `meta.json` names it.
fn write_generation(
    dir: &Path,
    gen: u64,
    backend: &dyn TrainBackend,
    graph: &Graph,
) -> io::Result<(PathBuf, PathBuf)> {
    let (mpath, gpath) = (model_path(dir, gen), graph_path(dir, gen));
    let (mtmp, gtmp) = (mpath.with_extension("tmp"), gpath.with_extension("tmp"));
    backend.save_state(&mtmp)?;
    graph_io::save_graph(graph, &gtmp).map_err(|e| bad_data(e.to_string()))?;
    std::fs::rename(&mtmp, &mpath)?;
    std::fs::rename(&gtmp, &gpath)?;
    fsync_path(&mpath)?;
    fsync_path(&gpath)?;
    Ok((mpath, gpath))
}

impl Wal {
    /// The open log over segment `report.segment` of generation
    /// `report.gen`, positioned to append `report.next_seq` at `tail_valid`.
    fn open(cfg: &WalConfig, file: File, tail_valid: u64, report: RecoveryReport) -> Wal {
        Wal {
            dir: cfg.dir.clone(),
            fsync: cfg.fsync,
            inner: Mutex::new(Inner {
                file,
                segment: report.segment,
                gen: report.gen,
                tail_valid,
                dirty: 0,
                last_sync: Instant::now(),
                next_seq: report.next_seq,
            }),
            report,
            appended: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
        }
    }

    /// Initialises a fresh store: generation-0 snapshot of the backend's
    /// model state + `graph`, an empty segment 0, and the first `meta.json`
    /// commit. The snapshot format is the backend's own (float SGE1 kind 2,
    /// fpga-sim kind 3), so recovery refuses a backend switch loudly.
    pub fn init(cfg: &WalConfig, backend: &dyn TrainBackend, graph: &Graph) -> io::Result<Wal> {
        std::fs::create_dir_all(&cfg.dir)?;
        if read_meta(&cfg.dir)?.is_some() {
            return Err(bad_data(format!(
                "wal dir {} already holds a committed store",
                cfg.dir.display()
            )));
        }
        write_generation(&cfg.dir, 0, backend, graph)?;
        let spath = segment_path(&cfg.dir, 0);
        let mut file =
            OpenOptions::new().create(true).truncate(true).read(true).write(true).open(&spath)?;
        file.write_all(MAGIC)?;
        file.sync_all()?;
        write_meta(&cfg.dir, Meta { gen: 0, applied_seq: 0, segment: 0, since_refresh: 0 })?;
        let report = RecoveryReport { next_seq: 1, ..RecoveryReport::default() };
        Ok(Wal::open(cfg, file, MAGIC.len() as u64, report))
    }

    /// Recovers a committed store: restores the snapshot generation, replays
    /// the segment's unapplied suffix through a fresh trainer (truncating
    /// any torn tail), and opens the log for appends. `Ok(None)` means the
    /// directory has never committed — call [`Wal::init`] after a cold boot.
    pub fn recover(
        cfg: &WalConfig,
        spec: &BackendSpec,
        refresh_every: u64,
    ) -> io::Result<Option<WalBoot>> {
        let Some((fold, report, scan)) = replay_state(cfg, spec, refresh_every)? else {
            return Ok(None);
        };
        let spath = segment_path(&cfg.dir, report.segment);
        let mut file = OpenOptions::new().read(true).write(true).open(&spath)?;
        let disk_len = file.metadata()?.len();
        let mut tail_valid = scan.valid_bytes;
        if tail_valid < MAGIC.len() as u64 {
            // Killed before the header landed: rebuild the empty segment.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.sync_all()?;
            tail_valid = MAGIC.len() as u64;
        } else if disk_len > tail_valid {
            file.set_len(tail_valid)?;
            file.sync_all()?;
        }
        let wal = Wal::open(cfg, file, tail_valid, report);
        Ok(Some(WalBoot { graph: fold.graph, backend: fold.backend, wal, report }))
    }

    /// Appends `event`, then (still holding the log lock) runs `send` to
    /// hand the assigned sequence number to the trainer — so log order and
    /// apply order can never diverge. If `send` fails the record is rolled
    /// back: an event the trainer will never apply must not resurface on
    /// replay. Returns the sequence number on success.
    pub fn append_then<E>(
        &self,
        event: EdgeEvent,
        fault: &FaultInjector,
        send: impl FnOnce(u64) -> Result<(), E>,
    ) -> io::Result<u64> {
        let mut inner = self.inner.lock().expect("wal lock poisoned");
        if fault.should(FaultPoint::WalAppendError) {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected wal append failure"));
        }
        // Heal a torn tail left by an earlier failed append.
        let disk_len = inner.file.metadata()?.len();
        if disk_len > inner.tail_valid {
            let valid = inner.tail_valid;
            inner.file.set_len(valid)?;
        }
        let valid = inner.tail_valid;
        inner.file.seek(SeekFrom::Start(valid))?;
        let seq = inner.next_seq;
        let rec = encode_record(seq, event);
        if fault.should(FaultPoint::WalShortWrite) {
            // A crash mid-write: half a record lands, the append errors
            // out, and tail_valid stays put so the garbage is truncated
            // on the next append (or by replay if we die first).
            let _ = inner.file.write_all(&rec[..rec.len() / 2]);
            let _ = inner.file.flush();
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected short write (torn wal tail)"));
        }
        inner.file.write_all(&rec)?;
        inner.dirty += 1;
        if let Err(e) = self.sync_if_due(&mut inner, false, Some(fault)) {
            // A refused append takes its record back out at once, so a
            // later commit cannot make it durable nor replay resurface it.
            let valid = inner.tail_valid;
            let _ = inner.file.set_len(valid);
            inner.dirty -= 1;
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        if send(seq).is_err() {
            let valid = inner.tail_valid;
            let _ = inner.file.set_len(valid);
            return Err(io::Error::new(ErrorKind::BrokenPipe, "trainer is shut down"));
        }
        inner.tail_valid += rec.len() as u64;
        inner.next_seq = seq + 1;
        self.appended.fetch_add(1, Ordering::Relaxed);
        Ok(seq)
    }

    /// Group commit for the `batch` policy: fsyncs pending appends once
    /// the count/age threshold is met. The trainer calls this at every
    /// batch boundary; under sustained load most boundaries skip the sync,
    /// which is what keeps the WAL's steady-state ingest tax small.
    pub fn batch_commit(&self) -> io::Result<()> {
        self.sync_if_due(&mut self.inner.lock().expect("wal lock poisoned"), false, None)
    }

    /// Unconditional fsync of pending appends — the trainer calls this
    /// when its queue drains and at flush/shutdown barriers, so the
    /// power-loss exposure of an idle server is zero, not "until the next
    /// batch".
    pub fn commit(&self) -> io::Result<()> {
        self.sync_if_due(&mut self.inner.lock().expect("wal lock poisoned"), true, None)
    }

    /// The one group-commit rule: fsyncs the segment when the policy says
    /// its unsynced records are due (`force`: a barrier, not a threshold).
    /// An append passes its `fault` schedule, whose
    /// [`FaultPoint::WalSyncFail`] fails the fsync before it is issued.
    fn sync_if_due(
        &self,
        inner: &mut Inner,
        force: bool,
        fault: Option<&FaultInjector>,
    ) -> io::Result<()> {
        let due = inner.dirty > 0
            && match self.fsync {
                FsyncPolicy::Always => true,
                FsyncPolicy::Batch => {
                    force
                        || inner.dirty >= BATCH_FSYNC_EVERY
                        || inner.last_sync.elapsed() >= BATCH_FSYNC_AGE
                }
                FsyncPolicy::Never => false,
            };
        if due {
            if fault.is_some_and(|f| f.should(FaultPoint::WalSyncFail)) {
                return Err(io::Error::other("injected wal fsync failure"));
            }
            inner.file.sync_data()?;
            inner.dirty = 0;
            inner.last_sync = Instant::now();
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Commits the next snapshot generation — the state of `fold`, which has
    /// consumed the log up to its `applied_seq` — and rotates to a fresh
    /// segment carrying only later records; everything is made durable, then
    /// `meta.json` is swapped. On return the old generation and segment are
    /// deleted. Returns the new model and graph paths.
    pub fn commit_snapshot(&self, fold: &Fold) -> io::Result<(PathBuf, PathBuf)> {
        let applied_seq = fold.applied_seq();
        // The generation is written outside the log lock (only the trainer
        // thread commits, so `gen` cannot move): appends keep flowing.
        let new_gen = self.inner.lock().expect("wal lock poisoned").gen + 1;
        let paths = write_generation(&self.dir, new_gen, &*fold.backend, &fold.graph)?;
        let mut inner = self.inner.lock().expect("wal lock poisoned");
        let new_seg = inner.segment + 1;
        // Carry unapplied records (acked but not yet folded into the new
        // snapshot) into the fresh segment.
        let old_spath = segment_path(&self.dir, inner.segment);
        let scan = read_segment(&old_spath)?;
        let new_spath = segment_path(&self.dir, new_seg);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&new_spath)?;
        file.write_all(MAGIC)?;
        let mut last = applied_seq;
        for rec in &scan.records {
            if rec.seq > last {
                file.write_all(&encode_record(rec.seq, rec.event))?;
                last = rec.seq;
            }
        }
        file.sync_all()?;
        let tail_valid = file.metadata()?.len();
        // The commit point: after this rename, recovery sees the new
        // generation; before it, the old one. Never a mix.
        let since_refresh = fold.since_refresh();
        write_meta(&self.dir, Meta { gen: new_gen, applied_seq, segment: new_seg, since_refresh })?;
        let old_gen = inner.gen;
        inner.file = file;
        inner.segment = new_seg;
        inner.gen = new_gen;
        inner.tail_valid = tail_valid;
        inner.dirty = 0;
        inner.last_sync = Instant::now();
        // Old generation/segment are garbage now; removal is best-effort
        // (a leftover file is re-deleted at the next rotation or ignored).
        let _ = std::fs::remove_file(&old_spath);
        let _ = std::fs::remove_file(model_path(&self.dir, old_gen));
        let _ = std::fs::remove_file(graph_path(&self.dir, old_gen));
        self.rotations.fetch_add(1, Ordering::Relaxed);
        Ok(paths)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// What recovery did when this log was opened (zeros for a fresh init).
    pub fn recovery(&self) -> RecoveryReport {
        self.report
    }

    /// Records appended since open.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Failed appends since open (including injected faults).
    pub fn append_errors(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
    }

    /// Fsyncs issued since open.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Segment rotations since open.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }
}

/// Loads snapshot generation `gen`: the graph, and the spec's
/// engine over the persisted model with a fresh sequential driver (empty
/// corpus — the replayed events rebuild it). [`BackendSpec::load`] sniffs
/// the snapshot's kind byte, so booting with the wrong `--backend` fails
/// here instead of replaying garbage.
pub fn load_generation(
    dir: &Path,
    spec: &BackendSpec,
    gen: u64,
) -> io::Result<(Graph, Box<dyn TrainBackend>)> {
    let backend = spec.load(&model_path(dir, gen))?;
    let graph = graph_io::load_graph(graph_path(dir, gen)).map_err(|e| bad_data(e.to_string()))?;
    if backend.num_nodes() != graph.num_nodes() {
        return Err(bad_data(format!(
            "snapshot mismatch: model covers {} nodes, graph has {}",
            backend.num_nodes(),
            graph.num_nodes()
        )));
    }
    Ok((graph, backend))
}

/// Restores the committed snapshot and replays the segment in memory —
/// shared by [`Wal::recover`] (which then truncates/opens the log) and
/// [`verify_replay`] (which must not touch the disk).
fn replay_state(
    cfg: &WalConfig,
    spec: &BackendSpec,
    refresh_every: u64,
) -> io::Result<Option<(Fold, RecoveryReport, SegmentScan)>> {
    let Some(meta) = read_meta(&cfg.dir)? else {
        return Ok(None);
    };
    let (graph, backend) = load_generation(&cfg.dir, spec, meta.gen)?;
    let mut fold = Fold::new(graph, backend, meta.applied_seq, meta.since_refresh, refresh_every);
    let scan = read_segment(&segment_path(&cfg.dir, meta.segment))?;
    let mut report = RecoveryReport {
        gen: meta.gen,
        segment: meta.segment,
        torn_tail: scan.torn,
        ..RecoveryReport::default()
    };
    for rec in &scan.records {
        let step = fold.apply(rec.seq, rec.event);
        match step.applied {
            Applied::Skipped if rec.seq <= meta.applied_seq => report.skipped_applied += 1,
            Applied::Skipped => report.duplicates += 1,
            Applied::Trained(_) => report.replayed += 1,
            Applied::Rejected => report.rejected += 1,
        }
        report.refreshes += u64::from(step.refreshed);
    }
    report.since_refresh = fold.since_refresh();
    report.next_seq = fold.applied_seq() + 1;
    Ok(Some((fold, report, scan)))
}

/// The result of `--wal-replay-check`.
#[derive(Debug, Clone, Copy)]
pub struct ReplayCheck {
    /// What a recovery of this store would do.
    pub report: RecoveryReport,
    /// Whether two independent replays produced bit-identical embeddings
    /// (they must; anything else means nondeterminism in the replay path).
    pub deterministic: bool,
    /// Rows in the recovered embedding.
    pub nodes: usize,
    /// Embedding dimension.
    pub dim: usize,
}

/// Read-only recovery audit: replays the store twice without modifying any
/// file and compares the resulting embeddings bit for bit.
pub fn verify_replay(
    cfg: &WalConfig,
    spec: &BackendSpec,
    refresh_every: u64,
) -> io::Result<ReplayCheck> {
    let (mut a, report, _) = replay_state(cfg, spec, refresh_every)?
        .ok_or_else(|| bad_data(format!("{}: no committed store", cfg.dir.display())))?;
    let (mut b, _, _) = replay_state(cfg, spec, refresh_every)?
        .ok_or_else(|| bad_data("store vanished mid-check"))?;
    let ea = a.backend.publish_view();
    let eb = b.backend.publish_view();
    let deterministic = ea.rows() == eb.rows()
        && ea.cols() == eb.cols()
        && ea.as_slice().iter().zip(eb.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
    Ok(ReplayCheck { report, deterministic, nodes: ea.rows(), dim: ea.cols() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip() {
        for (seq, event) in
            [(1u64, EdgeEvent::Add(3, 9)), (u64::MAX, EdgeEvent::Remove(0, u32::MAX))]
        {
            let rec = encode_record(seq, event);
            assert_eq!(rec.len(), 25);
            let payload = &rec[8..];
            assert_eq!(decode_payload(payload), Some(WalRecord { seq, event }));
        }
    }

    #[test]
    fn scan_stops_at_torn_tail_and_bad_crc() {
        let dir = std::env::temp_dir().join(format!("seqge-wal-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.log");

        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&encode_record(1, EdgeEvent::Add(0, 1)));
        bytes.extend_from_slice(&encode_record(2, EdgeEvent::Remove(0, 1)));
        let full_valid = bytes.len() as u64;
        bytes.extend_from_slice(&encode_record(3, EdgeEvent::Add(2, 3))[..10]); // torn
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_bytes, full_valid);
        assert!(scan.torn);

        // Flip one payload byte of record 1: the scan must stop *before*
        // it, dropping record 2 as well (everything after a bad checksum
        // is suspect).
        let mut corrupt = bytes.clone();
        corrupt[MAGIC.len() + 8 + 3] ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();
        let scan = read_segment(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, MAGIC.len() as u64);
        assert!(scan.torn);

        // Header-only file: clean empty log.
        std::fs::write(&path, MAGIC).unwrap();
        let scan = read_segment(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(!scan.torn);

        // Zero-byte file: torn before the header.
        std::fs::write(&path, b"").unwrap();
        let scan = read_segment(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.torn);

        // Wrong magic: hard error, not a silent empty log.
        std::fs::write(&path, b"NOPE").unwrap();
        assert!(read_segment(&path).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tailer_follows_incremental_appends_and_torn_tails() {
        let dir = std::env::temp_dir().join(format!("seqge-wal-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.log");

        // Tailing a file that doesn't exist yet is quietly empty.
        let mut tailer = SegmentTailer::new(path.clone());
        assert!(tailer.poll().unwrap().is_empty());

        use std::io::Write as _;
        let mut f = File::create(&path).unwrap();
        f.write_all(MAGIC).unwrap();
        f.flush().unwrap();
        assert!(tailer.poll().unwrap().is_empty());

        // One complete record appears in the next poll…
        f.write_all(&encode_record(1, EdgeEvent::Add(0, 1))).unwrap();
        f.flush().unwrap();
        assert_eq!(tailer.poll().unwrap(), vec![WalRecord { seq: 1, event: EdgeEvent::Add(0, 1) }]);
        // …and is not re-delivered.
        assert!(tailer.poll().unwrap().is_empty());

        // A record split across two writes stays pending until complete.
        let rec = encode_record(2, EdgeEvent::Remove(0, 1));
        f.write_all(&rec[..10]).unwrap();
        f.flush().unwrap();
        assert!(tailer.poll().unwrap().is_empty());
        f.write_all(&rec[10..]).unwrap();
        // A third record lands in the same window: both arrive in order.
        f.write_all(&encode_record(3, EdgeEvent::Add(2, 3))).unwrap();
        f.flush().unwrap();
        assert_eq!(
            tailer.poll().unwrap(),
            vec![
                WalRecord { seq: 2, event: EdgeEvent::Remove(0, 1) },
                WalRecord { seq: 3, event: EdgeEvent::Add(2, 3) },
            ]
        );

        // A torn tail that recovery truncates away: the tailer buffers the
        // partial bytes, then forgets them when the file shrinks back.
        let rec4 = encode_record(4, EdgeEvent::Add(4, 5));
        f.write_all(&rec4[..7]).unwrap();
        f.flush().unwrap();
        let len_with_torn = f.metadata().unwrap().len();
        assert!(tailer.poll().unwrap().is_empty());
        f.set_len(len_with_torn - 7).unwrap();
        assert!(tailer.poll().unwrap().is_empty());
        f.seek(SeekFrom::End(0)).unwrap();
        f.write_all(&rec4).unwrap();
        f.flush().unwrap();
        assert_eq!(tailer.poll().unwrap(), vec![WalRecord { seq: 4, event: EdgeEvent::Add(4, 5) }]);

        // The open descriptor keeps delivering after the path is unlinked
        // (segment rotation on the primary).
        std::fs::remove_file(&path).unwrap();
        f.write_all(&encode_record(5, EdgeEvent::Remove(2, 3))).unwrap();
        f.flush().unwrap();
        assert_eq!(
            tailer.poll().unwrap(),
            vec![WalRecord { seq: 5, event: EdgeEvent::Remove(2, 3) }]
        );

        // A garbage length field is a hard error, not a hang.
        let bad = dir.join("bad.log");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[0xFF; 16]);
        std::fs::write(&bad, &bytes).unwrap();
        let mut t2 = SegmentTailer::new(bad);
        assert!(t2.poll().is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_roundtrip_and_missing() {
        let dir = std::env::temp_dir().join(format!("seqge-wal-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(read_meta(&dir).unwrap(), None);
        let meta = Meta { gen: 3, applied_seq: 41, segment: 5, since_refresh: 2 };
        write_meta(&dir, meta).unwrap();
        assert_eq!(read_meta(&dir).unwrap(), Some(meta));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("batch").unwrap(), FsyncPolicy::Batch);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert!(FsyncPolicy::parse("sometimes").is_err());
        for p in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
            assert_eq!(FsyncPolicy::parse(p.as_str()).unwrap(), p);
        }
    }
}
