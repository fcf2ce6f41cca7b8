//! Log-linear histogram with lock-free recording and quantile readout.
//!
//! Values land in buckets spaced like HDR-histogram's coarse mode: each
//! power-of-two octave is split into 4 linear sub-buckets, so relative
//! bucket width is ≤ 25% everywhere — good enough for p50/p90/p99 latency
//! readout while keeping the whole histogram a fixed 252-slot array of
//! relaxed atomics (recording is one `fetch_add` + one `fetch_max`, no
//! locks, no allocation).

use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets 0..=3 cover values 0..=3 exactly; octaves 2..=63 contribute 4
/// sub-buckets each: `4 + (63 - 2 + 1) * 4 = 252`.
pub const NUM_BUCKETS: usize = 252;

/// Index of the bucket covering `v`. Total order: bucket lower bounds are
/// strictly increasing and every `u64` maps somewhere.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize; // floor(log2 v), >= 2
    let sub = ((v >> (octave - 2)) & 3) as usize; // top two bits after the leading 1
    4 * octave - 4 + sub
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let octave = (i + 4) / 4;
    let sub = (i + 4) % 4;
    (1u64 << octave).saturating_add((sub as u64) << (octave - 2))
}

/// Exclusive upper bound of bucket `i` (saturates at `u64::MAX`).
fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(i + 1)
    }
}

/// Saturating atomic add: totals stick at `u64::MAX` instead of wrapping,
/// so a long-running process can never report a small-looking sum.
#[inline]
fn saturating_fetch_add(a: &AtomicU64, v: u64) {
    let prev = a.fetch_add(v, Ordering::Relaxed);
    if prev > u64::MAX - v {
        a.store(u64::MAX, Ordering::Relaxed);
    }
}

/// A fixed-size concurrent histogram of `u64` samples (by convention,
/// nanoseconds for `_ns` metrics, plain counts otherwise).
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample. Lock-free; relaxed ordering (readers see a
    /// consistent-enough view for monitoring, never torn per-cell values).
    #[inline]
    pub fn record(&self, v: u64) {
        saturating_fetch_add(&self.count, 1);
        saturating_fetch_add(&self.sum, v);
        self.max.fetch_max(v, Ordering::Relaxed);
        saturating_fetch_add(&self.buckets[bucket_index(v)], 1);
    }

    /// Total samples recorded (saturating).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`), linearly interpolated inside the
    /// containing bucket. Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy for readout (individual cells are read
    /// relaxed; the snapshot is not a cross-cell atomic cut, which is fine
    /// for monitoring).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Plain-data copy of a [`Histogram`] for quantile math and export.
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket counts.
    pub buckets: [u64; NUM_BUCKETS],
}

impl HistogramSnapshot {
    /// See [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: q=0 → first, q=1 → last.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                let lo = bucket_lower(i) as f64;
                // Largest value the bucket can hold, clipped to the
                // observed max so a single sample reports itself rather
                // than its bucket ceiling.
                let hi = bucket_upper(i).saturating_sub(1).min(self.max) as f64;
                let frac = (rank - cum) as f64 / n as f64;
                return lo + (hi - lo).max(0.0) * frac;
            }
            cum += n;
        }
        self.max as f64 // only reachable if counts saturated inconsistently
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_are_monotone_and_total() {
        let mut last = 0usize;
        let mut probes: Vec<u64> = (0..=1024).collect();
        for shift in 10..64 {
            probes.push(1u64 << shift);
            probes.push((1u64 << shift) + 1);
            probes.push((1u64 << shift) - 1);
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        for &v in &probes {
            let b = bucket_index(v);
            assert!(b < NUM_BUCKETS, "v={v} → bucket {b}");
            assert!(b >= last, "bucket index must be monotone in v (v={v})");
            assert!(bucket_lower(b) <= v, "lower bound above v={v}");
            assert!(v < bucket_upper(b) || bucket_upper(b) == u64::MAX, "v={v} above upper");
            last = b;
        }
        // Bounds tile the line: upper(i) == lower(i+1).
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(bucket_upper(i), bucket_lower(i + 1), "gap after bucket {i}");
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.snapshot().mean(), 0.0);
    }

    #[test]
    fn single_sample_reports_itself() {
        let h = Histogram::new();
        h.record(1000);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 1000);
        assert_eq!(h.max(), 1000);
        // Every quantile of a one-sample distribution is that sample; the
        // max-clipped interpolation keeps it inside the bucket.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!(
                (960.0..=1000.0).contains(&est),
                "q={q} estimated {est}, bucket of 1000 is [960, 1024)"
            );
        }
    }

    #[test]
    fn quantiles_track_uniform_distribution() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        for (q, expect) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let est = h.quantile(q);
            let rel = (est - expect).abs() / expect;
            assert!(rel < 0.15, "q={q}: estimated {est}, want ≈{expect} (rel err {rel:.3})");
        }
        assert_eq!(h.max(), 10_000);
        assert!(h.quantile(1.0) <= 10_000.0);
    }

    #[test]
    fn zero_and_extreme_values_are_representable() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.0), 0.0); // rank 1 lands in the zero bucket
        assert!(h.quantile(1.0) > 0.0);
    }

    #[test]
    fn sums_saturate_instead_of_wrapping() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX); // would wrap a plain fetch_add
        assert_eq!(h.sum(), u64::MAX, "sum must saturate");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Quantiles still answer sanely.
        assert!(h.quantile(0.5) > 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        h.record(t * 1_000 + (i % 997));
                    }
                })
            })
            .collect();
        for th in handles {
            th.join().unwrap();
        }
        assert_eq!(h.count(), threads * per);
        let bucket_total: u64 = h.snapshot().buckets.iter().sum();
        assert_eq!(bucket_total, threads * per);
    }
}
