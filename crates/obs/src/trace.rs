//! Request-scoped distributed tracing, pure `std`.
//!
//! A trace is a tree of spans sharing one `trace_id`. Every layer that
//! touches a request (router, shard server, trainer publish) opens a span;
//! parent links come either from an explicit [`TraceCtx`] propagated over
//! the wire or from the per-thread active-span stack (nested `start_span`
//! calls on one thread parent automatically).
//!
//! ## Sampling
//!
//! Root spans are head-sampled 1-in-N (`SEQGE_TRACE_SAMPLE`, default 64;
//! `1` = always, `0` = never). Propagated contexts carry the decision so a
//! whole tree is kept or dropped together. A span can additionally be
//! [`Span::force_sample`]d after the fact — the serve layers do this for
//! degraded/shed/deadline-missed requests so the interesting traces are
//! always captured regardless of the sample rate.
//!
//! ## Cost model
//!
//! When [`crate::timing_enabled`] is off (`SEQGE_OBS=off`), `start_span`
//! returns an inert guard: no clock read, no id generation, no stack push —
//! the same discipline as [`crate::SpanGuard`]. When on, completed sampled
//! spans are pushed into a fixed-size ring of `RING_CAP` slots claimed by one
//! atomic `fetch_add` (per-slot mutexes are touched only for the single
//! uncontended store/load), so the buffer is bounded and never blocks the hot
//! path on a global lock.

use crate::log::escape_into;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Completed spans retained in the in-process ring (power of two).
pub const RING_CAP: usize = 4096;

const SAMPLE_UNSET: u32 = u32::MAX;
static SAMPLE_EVERY: AtomicU32 = AtomicU32::new(SAMPLE_UNSET);
static ROOT_COUNTER: AtomicU64 = AtomicU64::new(0);
static ID_STATE: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small per-thread ordinal used as the Chrome-trace `tid`.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Active-span stack: (trace_id, span_id, sampled), innermost last.
    static STACK: RefCell<Vec<(u64, u64, bool)>> = const { RefCell::new(Vec::new()) };
}

/// `(monotonic anchor, unix ns at the anchor)` — spans derive wall-clock
/// timestamps from one pair so they stay mutually consistent in-process.
fn clock_base() -> &'static (Instant, u64) {
    static BASE: OnceLock<(Instant, u64)> = OnceLock::new();
    BASE.get_or_init(|| {
        let unix =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        (Instant::now(), unix)
    })
}

fn unix_ns(at: Instant) -> u64 {
    let (anchor, base) = *clock_base();
    base.saturating_add(at.saturating_duration_since(anchor).as_nanos() as u64)
}

/// SplitMix64 over a global counter seeded from wall clock + pid: unique
/// in-process, collision-unlikely across processes, and never zero (zero is
/// the "no parent" sentinel).
pub fn next_id() -> u64 {
    if ID_STATE.load(Ordering::Relaxed) == 0 {
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0xdead_beef)
            ^ ((std::process::id() as u64) << 32)
            ^ 0x9e37_79b9_7f4a_7c15;
        let _ = ID_STATE.compare_exchange(0, seed | 1, Ordering::Relaxed, Ordering::Relaxed);
    }
    loop {
        let mut z = ID_STATE.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        if z != 0 {
            return z;
        }
    }
}

/// Head-sampling period: keep 1 root trace in every `n`. Lazily read from
/// `SEQGE_TRACE_SAMPLE` (default 64); `0` disables sampling entirely.
pub fn sample_every() -> u32 {
    match SAMPLE_EVERY.load(Ordering::Relaxed) {
        SAMPLE_UNSET => {
            let n = std::env::var("SEQGE_TRACE_SAMPLE")
                .ok()
                .and_then(|v| v.trim().parse::<u32>().ok())
                .unwrap_or(64);
            SAMPLE_EVERY.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Overrides the `SEQGE_TRACE_SAMPLE` default at runtime (tests, loadgen).
pub fn set_sample_every(n: u32) {
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

fn sample_root() -> bool {
    match sample_every() {
        0 => false,
        1 => true,
        n => ROOT_COUNTER.fetch_add(1, Ordering::Relaxed).is_multiple_of(n as u64),
    }
}

/// Propagated trace context: enough to parent a remote child span and carry
/// the head-sampling decision across the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    pub trace_id: u64,
    /// Span id of the caller's span; children created under this context
    /// use it as their parent link.
    pub parent_span: u64,
    pub sampled: bool,
}

impl TraceCtx {
    /// Parses the 16-hex-digit wire encoding produced by [`fmt_id`].
    pub fn parse_id(s: &str) -> Option<u64> {
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok()
    }
}

/// 16-hex-digit, zero-padded wire/JSON encoding of a trace or span id.
pub fn fmt_id(id: u64) -> String {
    format!("{id:016x}")
}

/// A completed span as stored in the ring and rendered by the exporters.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Monotonic completion sequence number (cursor position in the ring).
    pub seq: u64,
    pub trace_id: u64,
    pub span_id: u64,
    /// `0` for root spans.
    pub parent_span: u64,
    pub name: String,
    /// Wall-clock start, nanoseconds since the unix epoch.
    pub start_unix_ns: u64,
    pub dur_ns: u64,
    /// Small per-thread ordinal (Chrome-trace `tid`).
    pub tid: u64,
    pub tags: Vec<(String, String)>,
}

struct Ring {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    cursor: AtomicU64,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring {
        slots: (0..RING_CAP).map(|_| Mutex::new(None)).collect(),
        cursor: AtomicU64::new(0),
    })
}

fn push_record(mut rec: SpanRecord) {
    let r = ring();
    let seq = r.cursor.fetch_add(1, Ordering::Relaxed) + 1;
    rec.seq = seq;
    let slot = &r.slots[(seq as usize) % RING_CAP];
    *slot.lock().unwrap() = Some(rec);
}

/// Completed sampled spans with `seq > after`, oldest first, plus the
/// cursor to pass as `after` next time. Non-destructive — the flight
/// recorder and the `trace` protocol op can both read the same ring.
pub fn snapshot_since(after: u64) -> (Vec<SpanRecord>, u64) {
    let r = ring();
    let cursor = r.cursor.load(Ordering::Relaxed);
    let mut out: Vec<SpanRecord> = Vec::new();
    for slot in &r.slots {
        if let Some(rec) = slot.lock().unwrap().as_ref() {
            if rec.seq > after {
                out.push(rec.clone());
            }
        }
    }
    out.sort_by_key(|rec| rec.seq);
    (out, cursor)
}

/// Number of spans completed into the ring since process start.
pub fn completed_total() -> u64 {
    ring().cursor.load(Ordering::Relaxed)
}

/// RAII span guard. Created by [`start_span`]; records into the ring on
/// drop when sampled (or force-sampled) and tracing is enabled.
pub struct Span {
    active: bool,
    trace_id: u64,
    span_id: u64,
    parent_span: u64,
    sampled: bool,
    name: String,
    start: Option<Instant>,
    tags: Vec<(String, String)>,
}

impl Span {
    fn inert() -> Span {
        Span {
            active: false,
            trace_id: 0,
            span_id: 0,
            parent_span: 0,
            sampled: false,
            name: String::new(),
            start: None,
            tags: Vec::new(),
        }
    }

    /// `false` when tracing was disabled at creation time.
    pub fn is_active(&self) -> bool {
        self.active
    }

    pub fn is_sampled(&self) -> bool {
        self.sampled
    }

    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// Context to propagate to children (wire or in-process): this span
    /// becomes their parent.
    pub fn ctx(&self) -> Option<TraceCtx> {
        if !self.active {
            return None;
        }
        Some(TraceCtx { trace_id: self.trace_id, parent_span: self.span_id, sampled: self.sampled })
    }

    /// Keeps this span (and lets callers mark the tree interesting) even if
    /// head sampling dropped it — used for degraded/shed/deadline-missed
    /// outcomes.
    pub fn force_sample(&mut self) {
        if self.active {
            self.sampled = true;
        }
    }

    /// Attaches a key/value tag (op name, shard index, outcome, ...).
    pub fn tag(&mut self, key: &str, value: impl Into<String>) {
        if self.active {
            self.tags.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        // Pop this span from the thread's active stack. Guards are RAII so
        // drops are LIFO per thread; be lenient anyway and search from the
        // top in case a guard was moved across an unusual control path.
        STACK.with(|s| {
            let mut st = s.borrow_mut();
            if let Some(pos) = st.iter().rposition(|&(_, id, _)| id == self.span_id) {
                st.truncate(pos);
            }
        });
        if !self.sampled {
            return;
        }
        let start = match self.start {
            Some(t) => t,
            None => return,
        };
        let rec = SpanRecord {
            seq: 0,
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span: self.parent_span,
            name: std::mem::take(&mut self.name),
            start_unix_ns: unix_ns(start),
            dur_ns: start.elapsed().as_nanos() as u64,
            tid: TID.with(|t| *t),
            tags: std::mem::take(&mut self.tags),
        };
        push_record(rec);
    }
}

/// Opens a span. Parentage, in precedence order: the explicit `ctx`
/// (propagated over the wire), then the innermost active span on this
/// thread, else a new root (which takes the head-sampling decision).
///
/// Returns an inert guard when [`crate::timing_enabled`] is off — no clock
/// read, no id generation, no allocation (`name` is only copied when the
/// span is live).
pub fn start_span(name: &str, ctx: Option<TraceCtx>) -> Span {
    if !crate::timing_enabled() {
        return Span::inert();
    }
    let (trace_id, parent_span, sampled) = match ctx {
        Some(c) => (c.trace_id, c.parent_span, c.sampled),
        None => match STACK.with(|s| s.borrow().last().copied()) {
            Some((t, p, smp)) => (t, p, smp),
            None => (next_id(), 0, sample_root()),
        },
    };
    let span_id = next_id();
    STACK.with(|s| s.borrow_mut().push((trace_id, span_id, sampled)));
    Span {
        active: true,
        trace_id,
        span_id,
        parent_span,
        sampled,
        name: name.to_string(),
        start: Some(Instant::now()),
        tags: Vec::new(),
    }
}

/// Context of the innermost active span on this thread, if any — what a
/// fan-out loop uses to open *sibling* children under one parent (nested
/// `start_span(.., None)` calls would chain instead).
pub fn current_ctx() -> Option<TraceCtx> {
    if !crate::timing_enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().last().copied()).map(|(trace_id, parent_span, sampled)| TraceCtx {
        trace_id,
        parent_span,
        sampled,
    })
}

/// Records an already-measured interval as a completed span — used by the
/// trainer's publish path, where the write-to-visibility span starts at
/// enqueue on the worker thread and closes on the trainer thread.
pub fn record_closed(
    name: &str,
    ctx: TraceCtx,
    start: Instant,
    dur_ns: u64,
    tags: Vec<(String, String)>,
) {
    if !crate::timing_enabled() || !ctx.sampled {
        return;
    }
    push_record(SpanRecord {
        seq: 0,
        trace_id: ctx.trace_id,
        span_id: next_id(),
        parent_span: ctx.parent_span,
        name: name.to_string(),
        start_unix_ns: unix_ns(start),
        dur_ns,
        tid: TID.with(|t| *t),
        tags,
    });
}

/// One span as a self-contained JSON object (the JSONL trace export).
pub fn jsonl_line(rec: &SpanRecord) -> String {
    let mut s = String::with_capacity(160);
    s.push_str("{\"trace\":\"");
    s.push_str(&fmt_id(rec.trace_id));
    s.push_str("\",\"span\":\"");
    s.push_str(&fmt_id(rec.span_id));
    s.push_str("\",\"parent\":");
    if rec.parent_span == 0 {
        s.push_str("null");
    } else {
        s.push('"');
        s.push_str(&fmt_id(rec.parent_span));
        s.push('"');
    }
    s.push_str(",\"name\":\"");
    escape_into(&mut s, &rec.name);
    s.push_str(&format!(
        "\",\"ts_us\":{},\"dur_us\":{},\"tid\":{},\"seq\":{}",
        rec.start_unix_ns / 1_000,
        rec.dur_ns / 1_000,
        rec.tid,
        rec.seq
    ));
    if !rec.tags.is_empty() {
        s.push_str(",\"tags\":{");
        for (i, (k, v)) in rec.tags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            escape_into(&mut s, k);
            s.push_str("\":\"");
            escape_into(&mut s, v);
            s.push('"');
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// Renders spans as a Chrome `trace_event` JSON document (complete `"X"`
/// events, microsecond timestamps) loadable in `chrome://tracing` and
/// Perfetto. `pid` distinguishes processes when merging multi-process
/// dumps; pass [`std::process::id`] for local spans.
pub fn chrome_trace(records: &[SpanRecord], pid: u32) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, rec) in records.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"name\":\"");
        escape_into(&mut s, &rec.name);
        s.push_str(&format!(
            "\",\"cat\":\"seqge\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{}",
            rec.start_unix_ns / 1_000,
            rec.dur_ns.max(1_000) / 1_000,
            rec.tid
        ));
        s.push_str(",\"args\":{\"trace\":\"");
        s.push_str(&fmt_id(rec.trace_id));
        s.push_str("\",\"span\":\"");
        s.push_str(&fmt_id(rec.span_id));
        s.push_str("\",\"parent\":\"");
        s.push_str(&fmt_id(rec.parent_span));
        s.push('"');
        for (k, v) in &rec.tags {
            s.push_str(",\"");
            escape_into(&mut s, k);
            s.push_str("\":\"");
            escape_into(&mut s, v);
            s.push('"');
        }
        s.push_str("}}");
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_tracing_on<T>(f: impl FnOnce() -> T) -> T {
        let _guard = crate::TEST_TIMING_LOCK.lock().unwrap();
        crate::set_timing_enabled(true);
        let out = f();
        crate::set_timing_enabled(true);
        out
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn id_wire_encoding_round_trips() {
        let id = next_id();
        assert_eq!(TraceCtx::parse_id(&fmt_id(id)), Some(id));
        assert_eq!(TraceCtx::parse_id(""), None);
        assert_eq!(TraceCtx::parse_id("zz"), None);
        assert_eq!(TraceCtx::parse_id("00000000000000001"), None); // 17 digits
    }

    #[test]
    fn nested_spans_parent_via_thread_stack() {
        with_tracing_on(|| {
            set_sample_every(1);
            let before = completed_total();
            let (root_id, child_parent, trace_a, trace_b);
            {
                let root = start_span("test.root", None);
                root_id = root.span_id();
                trace_a = root.trace_id();
                {
                    let child = start_span("test.child", None);
                    child_parent = (child.trace_id(), child.span_id());
                    trace_b = child.trace_id();
                }
            }
            assert_eq!(trace_a, trace_b, "child inherits trace id from stack");
            let (spans, _) = snapshot_since(before);
            let child = spans.iter().find(|s| s.span_id == child_parent.1).expect("child recorded");
            assert_eq!(child.parent_span, root_id);
            let root = spans.iter().find(|s| s.span_id == root_id).expect("root recorded");
            assert_eq!(root.parent_span, 0);
        });
    }

    #[test]
    fn explicit_ctx_wins_over_stack() {
        with_tracing_on(|| {
            set_sample_every(1);
            let _outer = start_span("test.outer", None);
            let remote = TraceCtx { trace_id: 42, parent_span: 7, sampled: true };
            let child = start_span("test.remote_child", Some(remote));
            assert_eq!(child.trace_id(), 42);
            assert_eq!(child.ctx().unwrap().parent_span, child.span_id());
        });
    }

    #[test]
    fn unsampled_spans_are_not_recorded_but_force_sample_keeps_them() {
        with_tracing_on(|| {
            set_sample_every(0); // never head-sample
            let before = completed_total();
            {
                let _dropped = start_span("test.unsampled", None);
            }
            assert_eq!(completed_total(), before, "unsampled span stays out of the ring");
            {
                let mut kept = start_span("test.forced", None);
                kept.force_sample();
                kept.tag("outcome", "degraded");
            }
            let (spans, _) = snapshot_since(before);
            assert!(spans.iter().any(|s| s.name == "test.forced"));
            set_sample_every(1);
        });
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _guard = crate::TEST_TIMING_LOCK.lock().unwrap();
        crate::set_timing_enabled(false);
        let before = completed_total();
        {
            let mut s = start_span("test.off", None);
            assert!(!s.is_active());
            assert!(s.ctx().is_none());
            s.force_sample();
        }
        assert_eq!(completed_total(), before);
        crate::set_timing_enabled(true);
    }

    #[test]
    fn jsonl_and_chrome_exports_are_valid_shapes() {
        let rec = SpanRecord {
            seq: 3,
            trace_id: 0xabc,
            span_id: 0xdef,
            parent_span: 0,
            name: "weird \"name\"\nwith\\escapes".into(),
            start_unix_ns: 1_000_000_000,
            dur_ns: 2_500_000,
            tid: 4,
            tags: vec![("op".into(), "topk".into())],
        };
        let line = jsonl_line(&rec);
        assert!(line.starts_with("{\"trace\":\"0000000000000abc\""));
        assert!(line.contains("\\\"name\\\"\\nwith\\\\escapes"));
        assert!(line.contains("\"parent\":null"));
        assert!(line.contains("\"tags\":{\"op\":\"topk\"}"));
        let doc = chrome_trace(&[rec], 123);
        assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"pid\":123"));
        assert!(doc.ends_with("]}"));
    }

    #[test]
    fn ring_snapshot_is_incremental() {
        with_tracing_on(|| {
            set_sample_every(1);
            let before = completed_total();
            drop(start_span("test.first", None));
            let (first, cursor) = snapshot_since(before);
            assert!(first.iter().any(|s| s.name == "test.first"));
            drop(start_span("test.second", None));
            let (second, _) = snapshot_since(cursor);
            assert!(second.iter().all(|s| s.name != "test.first"));
            assert!(second.iter().any(|s| s.name == "test.second"));
        });
    }
}
