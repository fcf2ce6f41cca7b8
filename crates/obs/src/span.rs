//! RAII span timers feeding histograms.
//!
//! ```ignore
//! let _g = seqge_obs::span!("seqge_core_ingest_ns");
//! ingest_batch(...); // duration recorded in ns when _g drops
//! ```
//!
//! The clock read is gated on [`crate::timing_enabled`] (one atomic load),
//! so `SEQGE_OBS=off` turns every span into a no-op without recompiling.
//! The `span!` macro caches its histogram handle in a per-call-site
//! `OnceLock`, so steady-state cost is: one load (gate) + two `Instant`
//! reads + one histogram record.

use crate::hist::Histogram;
use std::time::Instant;

/// Live timer; records elapsed nanoseconds into its histogram on drop.
pub struct SpanGuard<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl<'a> SpanGuard<'a> {
    /// Starts a span against `hist` (no clock read when timing is off).
    pub fn start(hist: &'a Histogram) -> Self {
        let start = if crate::timing_enabled() { Some(Instant::now()) } else { None };
        SpanGuard { hist, start }
    }

    /// Ends the span early, recording now rather than at scope exit.
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let ns = t0.elapsed().as_nanos();
            self.hist.record(ns.min(u64::MAX as u128) as u64);
        }
    }
}

/// Starts a [`SpanGuard`] against a histogram in the global registry,
/// caching the handle per call site. Bind the result: `let _g = span!(..)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static HIST: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        $crate::SpanGuard::start(HIST.get_or_init(|| $crate::Registry::global().histogram($name)))
    }};
}

/// A `&'static Counter` from the global registry, cached per call site.
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static C: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> = std::sync::OnceLock::new();
        &**C.get_or_init(|| $crate::Registry::global().counter($name))
    }};
    ($name:expr, $($k:expr => $v:expr),+) => {{
        static C: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> = std::sync::OnceLock::new();
        &**C.get_or_init(|| $crate::Registry::global().counter_with($name, &[$(($k, $v)),+]))
    }};
}

/// A `&'static Gauge` from the global registry, cached per call site.
#[macro_export]
macro_rules! static_gauge {
    ($name:expr) => {{
        static G: std::sync::OnceLock<std::sync::Arc<$crate::Gauge>> = std::sync::OnceLock::new();
        &**G.get_or_init(|| $crate::Registry::global().gauge($name))
    }};
    ($name:expr, $($k:expr => $v:expr),+) => {{
        static G: std::sync::OnceLock<std::sync::Arc<$crate::Gauge>> = std::sync::OnceLock::new();
        &**G.get_or_init(|| $crate::Registry::global().gauge_with($name, &[$(($k, $v)),+]))
    }};
}

/// A `&'static Histogram` from the global registry, cached per call site.
#[macro_export]
macro_rules! static_histogram {
    ($name:expr) => {{
        static H: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        &**H.get_or_init(|| $crate::Registry::global().histogram($name))
    }};
    ($name:expr, $($k:expr => $v:expr),+) => {{
        static H: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        &**H.get_or_init(|| $crate::Registry::global().histogram_with($name, &[$(($k, $v)),+]))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_elapsed_time() {
        let _guard = crate::TEST_TIMING_LOCK.lock().unwrap();
        crate::set_timing_enabled(true);
        let h = Histogram::new();
        {
            let _g = SpanGuard::start(&h);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1_000_000, "slept 2ms, recorded {}ns", h.max());
    }

    #[test]
    fn disabled_timing_skips_recording() {
        let _guard = crate::TEST_TIMING_LOCK.lock().unwrap();
        crate::set_timing_enabled(false);
        let h = Histogram::new();
        {
            let _g = SpanGuard::start(&h);
        }
        assert_eq!(h.count(), 0);
        crate::set_timing_enabled(true);
    }

    #[test]
    fn span_macro_lands_in_global_registry() {
        let _guard = crate::TEST_TIMING_LOCK.lock().unwrap();
        crate::set_timing_enabled(true);
        {
            let _g = crate::span!("seqge_obs_test_span_ns");
        }
        let h = crate::Registry::global().histogram("seqge_obs_test_span_ns");
        assert!(h.count() >= 1);
        static_counter!("seqge_obs_test_total").inc();
        static_counter!("seqge_obs_test_ops_total", "op" => "x").add(2);
        static_gauge!("seqge_obs_test_depth").inc();
        static_histogram!("seqge_obs_test_sizes").record(7);
        assert_eq!(crate::Registry::global().counter("seqge_obs_test_total").get(), 1);
        assert_eq!(
            crate::Registry::global()
                .counter_with("seqge_obs_test_ops_total", &[("op", "x")])
                .get(),
            2
        );
    }
}
