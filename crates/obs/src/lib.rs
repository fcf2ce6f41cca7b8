//! # seqge-obs — zero-dependency tracing + metrics for the seqge workspace
//!
//! The paper's claims are timing claims (Tables 3–6: ns/walk, stage
//! occupancy, DMA overlap), so the runtime system needs first-class
//! visibility rather than per-experiment bench binaries. This crate is the
//! shared observability layer, pure `std` like the rest of the workspace:
//!
//! * [`Registry`] — a global (or per-instance) metrics registry of atomic
//!   [`Counter`]s, [`Gauge`]s, and log-bucketed [`Histogram`]s with
//!   p50/p90/p99/max readout. Handle lookup takes a mutex once; recording
//!   through a held handle is a relaxed atomic RMW, safe to call from the
//!   training hot loop.
//! * [`span!`] — RAII timer guards feeding histograms
//!   (`let _g = span!("seqge_core_ingest_ns");`). Timer starts are
//!   gated on one atomic load ([`timing_enabled`]) so `SEQGE_OBS=off`
//!   removes every `Instant::now` call from the hot path.
//! * [`log`] — a leveled structured logger emitting JSONL to stderr (or a
//!   file), controlled by `SEQGE_LOG` / [`log::set_level`]. Replaces the
//!   ad-hoc `eprintln!`s that used to live in the serve daemon.
//! * [`export`] — renders one or more registries as Prometheus
//!   text-exposition format or a JSON document; the serve daemon's
//!   `metrics` op and `seqge obs dump` are thin wrappers over these.
//!
//! ## Naming scheme
//!
//! `seqge_<subsystem>_<metric>_<unit>`: subsystem is the crate-ish area
//! (`pipeline`, `core`, `serve`, `fpga`), durations are `_ns`, monotonic
//! counts end in `_total`, gauges are bare nouns. Label sets stay tiny
//! (`op`, `batch`, `point`) so the registry map stays small and lookups
//! stay rare.
//!
//! ## Overhead budget
//!
//! Counters/gauges/histogram records are always live: each is one relaxed
//! `fetch_add`-class op, and the serve daemon's correctness-relevant stats
//! ride on them. The runtime switch only gates clock reads (spans). The
//! repo benchmark (`benchmark/`) runs the node with spans on, so every
//! end-to-end number it reports already pays for this crate; its
//! `bench.trace_overhead_share` line prices the spans of a traced run.

#![forbid(unsafe_code)]

pub mod export;
pub mod flightrec;
pub mod hist;
pub mod log;
pub mod registry;
pub mod span;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry};
pub use span::SpanGuard;
pub use trace::{Span, SpanRecord, TraceCtx};

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state so the first read can lazily consult `SEQGE_OBS`.
const TIMING_UNSET: u8 = 2;
static TIMING: AtomicU8 = AtomicU8::new(TIMING_UNSET);

/// Runtime switch for span timers (clock reads). Counters and histogram
/// records stay live either way — they are plain atomics and the serve
/// stats depend on them.
///
/// Defaults from the `SEQGE_OBS` environment variable: `0`, `off`, or
/// `false` disable timing; anything else (or unset) enables it.
pub fn timing_enabled() -> bool {
    match TIMING.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => {
            let on =
                !matches!(std::env::var("SEQGE_OBS").as_deref(), Ok("0") | Ok("off") | Ok("false"));
            TIMING.store(on as u8, Ordering::Relaxed);
            on
        }
    }
}

/// Overrides the `SEQGE_OBS` default for span timing at runtime.
pub fn set_timing_enabled(on: bool) {
    TIMING.store(on as u8, Ordering::Relaxed);
}

/// Serializes tests that toggle the global timing switch (unit tests run
/// in parallel threads within one process).
#[cfg(test)]
pub(crate) static TEST_TIMING_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_switch_round_trips() {
        let _guard = TEST_TIMING_LOCK.lock().unwrap();
        set_timing_enabled(false);
        assert!(!timing_enabled());
        set_timing_enabled(true);
        assert!(timing_enabled());
    }
}
