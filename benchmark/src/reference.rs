//! The machine-speed witness.
//!
//! The 2-vCPU VM the benchmark was defined on switches, for seconds to tens
//! of minutes at a time, into a state where the server's compute-bound code
//! runs 1.4–1.8× slower (a busy host sibling: CPU time tracks wall time and
//! steal stays near 2 %). Raw timings then spread 30–45 % between
//! back-to-back runs of the same code, which no regression bound survives.
//!
//! A *dependent* FMA chain does not see that state (×1.12 when the server's
//! ingest path is at ×1.43) because it leaves the core's issue ports idle
//! anyway. A kernel that keeps them busy does: the one below — the OS-ELM
//! `P ← P − (P·h)(P·h)ᵀ / (1 + hᵀ·P·h)` rank-1 update on a 32×32 matrix,
//! L1-resident, written here and never changed — slowed ×1.38 in the same
//! windows (measured on its first draft, the same arithmetic in index loops), and ingest time over kernel time held a 1.7 % coefficient of
//! variation over 9 minutes where ingest time alone had 5.7 %. The slow
//! state is per core, so a thread's kernel runs speak for that thread only.
//!
//! So every timed segment of a run is bracketed by two runs of this kernel
//! on the thread that does the timing, and each end-to-end timing is scaled
//! by the segment's [`speed`]: the metrics read as "at the speed of the quiet
//! box", the raw values go to stderr, and the per-layer spans stay raw.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What [`kernel_ms`] reads on the quiet box the benchmark was defined on.
/// It only fixes the unit of the scaled metrics; changing it rescales every
/// baseline.
pub const NOMINAL_MS: f64 = 4.55;

const D: usize = 32;

/// The median wall time of `runs` back-to-back runs of the reference
/// kernel, ms.
pub fn kernel_ms(runs: usize) -> f64 {
    let mut times: Vec<f64> = (0..runs).map(|_| kernel_once_ms()).collect();
    crate::stats::median(&mut times)
}

fn kernel_once_ms() -> f64 {
    let t0 = Instant::now();
    let mut p = [0.01f32; D * D];
    let h = [0.3f32; D];
    let mut ph = [0f32; D];
    for _ in 0..12_000 {
        for (row, out) in p.chunks_exact(D).zip(&mut ph) {
            *out = row.iter().zip(&h).map(|(a, b)| a * b).sum();
        }
        let inv = 1.0 / (1.0 + h.iter().zip(&ph).map(|(a, b)| a * b).sum::<f32>());
        for (row, c) in p.chunks_exact_mut(D).zip(ph) {
            for (x, y) in row.iter_mut().zip(&ph) {
                *x -= c * inv * y;
            }
        }
        black_box(&mut p);
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Machine speed relative to the quiet box (1.0 there, below 1 when
/// contended) over a segment bracketed by two kernel runs.
pub fn speed(before_ms: f64, after_ms: f64) -> f64 {
    NOMINAL_MS / ((before_ms + after_ms) / 2.0)
}

/// Kernel runs bracketing consecutive segments: segment `k` lies between
/// runs `k` and `k + 1`.
#[derive(Default)]
pub struct Witness {
    kernel_ms: Vec<f64>,
    marked: Option<Instant>,
}

impl Witness {
    /// Runs the kernel now: closes the current segment, opens the next.
    pub fn mark(&mut self) {
        self.kernel_ms.push(kernel_ms(3));
        self.marked = Some(Instant::now());
    }

    /// The open segment's index, after closing it and opening the next if
    /// it has been open for `period` (or none is open yet).
    pub fn current(&mut self, period: Duration) -> usize {
        if self.marked.is_none_or(|at| at.elapsed() >= period) {
            self.mark();
        }
        self.kernel_ms.len() - 1
    }

    /// Segments closed so far.
    pub fn segments(&self) -> usize {
        self.kernel_ms.len().saturating_sub(1)
    }

    /// The speed of segment `k`.
    pub fn speed(&self, k: usize) -> f64 {
        speed(self.kernel_ms[k], self.kernel_ms[k + 1])
    }

    /// Every kernel time recorded, ms.
    pub fn kernel_times(&self) -> &[f64] {
        &self.kernel_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_relative_to_the_nominal_kernel_time() {
        assert_eq!(speed(NOMINAL_MS, NOMINAL_MS), 1.0);
        assert_eq!(speed(2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS), 0.5);
        assert!((speed(NOMINAL_MS, 3.0 * NOMINAL_MS) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn witness_segments_sit_between_marks() {
        let mut w = Witness::default();
        assert_eq!(w.segments(), 0);
        w.kernel_ms = vec![NOMINAL_MS, NOMINAL_MS, 2.0 * NOMINAL_MS];
        assert_eq!(w.segments(), 2);
        assert_eq!(w.speed(0), 1.0);
        assert!((w.speed(1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn current_opens_a_segment_per_period() {
        let mut w = Witness::default();
        assert_eq!(w.current(Duration::from_secs(3600)), 0);
        assert_eq!(w.current(Duration::from_secs(3600)), 0);
        assert_eq!(w.current(Duration::ZERO), 1);
        w.mark();
        assert_eq!(w.segments(), 2);
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        let ms = kernel_ms(1);
        assert!(ms > 0.5 && ms < 5_000.0, "kernel took {ms} ms");
    }
}
