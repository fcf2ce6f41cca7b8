//! The metrics registry: named handles to atomic counters, gauges, and
//! histograms.
//!
//! Lookup (`counter`, `gauge`, `histogram` and their `_with` label
//! variants) takes a mutex and allocates; callers do it once — at
//! construction time or through a `OnceLock` in the [`crate::span!`]-style
//! macros — and then record through the returned `Arc` handle, which is
//! pure relaxed atomics. The registry itself is therefore never on the hot
//! path.
//!
//! There is one process-wide registry ([`Registry::global`]) for library
//! instrumentation (pipeline, core, fpga), and components that need
//! isolation (each serve daemon instance, tests) can own private
//! `Registry` values; [`crate::export`] renders any set of registries
//! together.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically non-decreasing `u64` metric.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A free-standing counter (registry-less, for tests or struct fields).
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `v` (saturating at `u64::MAX`).
    #[inline]
    pub fn add(&self, v: u64) {
        let prev = self.0.fetch_add(v, Ordering::Relaxed);
        if prev > u64::MAX - v {
            self.0.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Raises the counter to `v` if `v` is larger (keeps the metric
    /// monotone when syncing from an external absolute count).
    #[inline]
    pub fn set_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, backlogs, occupancy).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A free-standing gauge.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts 1.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Identity of a metric: name + sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MetricKey {
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut labels: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    labels.sort();
    MetricKey { name: name.to_string(), labels }
}

pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A namespace of metrics. See the module docs for the global-vs-instance
/// split.
#[derive(Default)]
pub struct Registry {
    pub(crate) metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry used by library instrumentation.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Gets or creates the counter `name` (no labels).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Gets or creates the counter `name{labels}`.
    ///
    /// # Panics
    /// If `name{labels}` is already registered as a different metric type.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Gets or creates the gauge `name` (no labels).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Gets or creates the gauge `name{labels}`.
    ///
    /// # Panics
    /// If `name{labels}` is already registered as a different metric type.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m.entry(key(name, labels)).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Gets or creates the histogram `name` (no labels).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Gets or creates the histogram `name{labels}`.
    ///
    /// # Panics
    /// If `name{labels}` is already registered as a different metric type.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Number of registered metrics (all types).
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("registry poisoned").len()
    }

    /// Whether the registry holds no metrics yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn handles_are_shared_per_key() {
        let r = Registry::new();
        let a = r.counter("seqge_test_total");
        let b = r.counter("seqge_test_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.len(), 1);
        // Different labels → different series.
        let c = r.counter_with("seqge_test_total", &[("op", "ping")]);
        c.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(c.get(), 1);
        assert_eq!(r.len(), 2);
        // Label order does not matter.
        let d = r.counter_with("seqge_lbl", &[("a", "1"), ("b", "2")]);
        let e = r.counter_with("seqge_lbl", &[("b", "2"), ("a", "1")]);
        d.inc();
        assert_eq!(e.get(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("seqge_test_metric");
        r.gauge("seqge_test_metric");
    }

    #[test]
    fn counter_saturates_and_set_to_is_monotone() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        let c2 = Counter::new();
        c2.set_to(10);
        c2.set_to(4); // lower: ignored
        assert_eq!(c2.get(), 10);
        c2.set_to(12);
        assert_eq!(c2.get(), 12);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.add(-5);
        assert_eq!(g.get(), -4);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    /// Many threads hammering the same registry: handle lookup races and
    /// recording races must both be loss-free.
    #[test]
    fn registry_survives_concurrent_hammering() {
        let r = Arc::new(Registry::new());
        let threads = 8;
        let iters = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let r = r.clone();
                thread::spawn(move || {
                    // Every thread looks up the same three metrics fresh
                    // (worst case: all lookups race) and records.
                    for i in 0..iters {
                        r.counter("seqge_hammer_total").inc();
                        r.gauge("seqge_hammer_depth").add(if i % 2 == 0 { 1 } else { -1 });
                        r.histogram("seqge_hammer_ns").record(t * 100 + i % 50);
                        r.counter_with("seqge_hammer_ops_total", &[("op", "x")]).inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("seqge_hammer_total").get(), threads * iters);
        assert_eq!(r.counter_with("seqge_hammer_ops_total", &[("op", "x")]).get(), threads * iters);
        assert_eq!(r.gauge("seqge_hammer_depth").get(), 0);
        let h = r.histogram("seqge_hammer_ns");
        assert_eq!(h.count(), threads * iters);
        assert!(h.max() >= (threads - 1) * 100);
        assert_eq!(r.len(), 4);
    }
}
