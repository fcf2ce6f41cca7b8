//! Deterministic fault injection for the serve plane.
//!
//! Chaos testing needs failures that are *reproducible*: the same seed must
//! produce the same fault schedule so a CI matrix over seeds explores
//! different failure interleavings without flaking. Each [`FaultPoint`]
//! keeps its own call counter, and the fire/no-fire decision for the n-th
//! visit to a point is a pure hash of `(seed, point, n)` — independent of
//! thread scheduling, wall clock, and every other point.
//!
//! Activation is environmental so the same binary runs clean in production
//! and hostile under test:
//!
//! ```text
//! SEQGE_FAULT="conn_drop=0.05,wal_short_write=0.02,trainer_panic=0.01"
//! SEQGE_FAULT_SEED=7          # schedule selector (default 0)
//! SEQGE_FAULT_STALL_MS=1500   # duration of injected stalls (default 1200)
//! ```
//!
//! Rates are probabilities in `[0, 1]`. Every fired fault is counted in the
//! server registry as `seqge_serve_fault_injected_total{point=...}`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Every place the serve plane can be made to fail on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// WAL append writes only a prefix of the record and reports an error,
    /// leaving a torn tail on disk (healed before the next append, kept if
    /// the process dies first — exactly a crash mid-write).
    WalShortWrite,
    /// WAL append fails cleanly before writing anything.
    WalAppendError,
    /// The server drops a connection after reading a request, before
    /// answering (the client sees EOF mid-call).
    ConnDrop,
    /// The server stalls before answering for longer than a sane client
    /// timeout (exercises client-side deadlines and reconnect).
    ConnStall,
    /// The trainer thread panics while applying an event.
    TrainerPanic,
    /// The trainer sleeps per applied event (builds real backlog, which is
    /// how backpressure shedding is tested deterministically).
    TrainerStall,
    /// The fsync of a WAL append fails after the record was written: the
    /// append is refused and its record truncated at once.
    WalSyncFail,
}

impl FaultPoint {
    /// Every point, in a fixed order (index = counter slot). The index
    /// enters the schedule hash, so a new point goes last and every
    /// existing seed keeps its schedule.
    pub const ALL: [FaultPoint; 7] = [
        FaultPoint::WalShortWrite,
        FaultPoint::WalAppendError,
        FaultPoint::ConnDrop,
        FaultPoint::ConnStall,
        FaultPoint::TrainerPanic,
        FaultPoint::TrainerStall,
        FaultPoint::WalSyncFail,
    ];

    /// The spec / metric-label name of this point.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::WalShortWrite => "wal_short_write",
            FaultPoint::WalAppendError => "wal_append_error",
            FaultPoint::ConnDrop => "conn_drop",
            FaultPoint::ConnStall => "conn_stall",
            FaultPoint::TrainerPanic => "trainer_panic",
            FaultPoint::TrainerStall => "trainer_stall",
            FaultPoint::WalSyncFail => "wal_sync_fail",
        }
    }

    fn index(self) -> usize {
        FaultPoint::ALL.iter().position(|&p| p == self).expect("point listed in ALL")
    }
}

/// SplitMix64 — the standard 64-bit finalizer; good enough to decorrelate
/// `(seed, point, call)` triples into uniform bits.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic fault schedule. Cheap to consult (one atomic increment
/// plus a hash when the point is armed, one load when it is not).
pub struct FaultInjector {
    seed: u64,
    /// Per-point fire threshold in units of 2⁻³², `u32::MAX`-capped;
    /// 0 = disarmed.
    thresholds: [u32; FaultPoint::ALL.len()],
    /// Per-point visit counters (the `n` in the hash).
    visits: [AtomicU64; FaultPoint::ALL.len()],
    /// Per-point fired counters (exported through `ServeStats`).
    fired: [AtomicU64; FaultPoint::ALL.len()],
    stall: Duration,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::disabled()
    }
}

impl FaultInjector {
    /// An injector with every point disarmed ([`FaultInjector::should`] is
    /// a single relaxed load).
    pub fn disabled() -> Self {
        FaultInjector {
            seed: 0,
            thresholds: [0; FaultPoint::ALL.len()],
            visits: Default::default(),
            fired: Default::default(),
            stall: Duration::from_millis(1200),
        }
    }

    /// Builds the injector from `SEQGE_FAULT` / `SEQGE_FAULT_SEED` /
    /// `SEQGE_FAULT_STALL_MS`. An unset or empty `SEQGE_FAULT` disables
    /// everything; a malformed spec is an error (silent misconfiguration
    /// would defeat the chaos suite).
    pub fn from_env() -> Result<Self, String> {
        let spec = std::env::var("SEQGE_FAULT").unwrap_or_default();
        if spec.trim().is_empty() {
            return Ok(FaultInjector::disabled());
        }
        let seed = match std::env::var("SEQGE_FAULT_SEED") {
            Ok(s) => s.parse().map_err(|_| format!("SEQGE_FAULT_SEED: cannot parse `{s}`"))?,
            Err(_) => 0,
        };
        let mut inj = FaultInjector::parse(&spec, seed)?;
        if let Ok(ms) = std::env::var("SEQGE_FAULT_STALL_MS") {
            let ms: u64 = ms.parse().map_err(|_| format!("SEQGE_FAULT_STALL_MS: `{ms}`"))?;
            inj.stall = Duration::from_millis(ms);
        }
        Ok(inj)
    }

    /// Parses a `point=rate,point=rate` spec (rates in `[0, 1]`).
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut inj = FaultInjector { seed, ..FaultInjector::disabled() };
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, rate) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}`: want name=rate"))?;
            let rate: f64 =
                rate.trim().parse().map_err(|_| format!("fault rate `{rate}`: not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} outside [0, 1]"));
            }
            let point = FaultPoint::ALL
                .iter()
                .find(|p| p.name() == name.trim())
                .ok_or_else(|| format!("unknown fault point `{name}`"))?;
            inj.thresholds[point.index()] = (rate * u32::MAX as f64).round() as u32;
        }
        Ok(inj)
    }

    /// Overrides the stall duration (tests; `SEQGE_FAULT_STALL_MS` is the
    /// environmental equivalent).
    pub fn with_stall(mut self, d: Duration) -> Self {
        self.stall = d;
        self
    }

    /// Whether any point is armed.
    pub fn active(&self) -> bool {
        self.thresholds.iter().any(|&t| t > 0)
    }

    /// Decides (deterministically) whether this visit to `point` fails.
    pub fn should(&self, point: FaultPoint) -> bool {
        let i = point.index();
        let threshold = self.thresholds[i];
        if threshold == 0 {
            return false;
        }
        let n = self.visits[i].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.seed ^ ((i as u64) << 56) ^ n);
        let fire = (h >> 32) as u32 <= threshold;
        if fire {
            self.fired[i].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// How long an injected stall lasts.
    pub fn stall(&self) -> Duration {
        self.stall
    }

    /// How many times `point` has actually fired.
    pub fn fired(&self, point: FaultPoint) -> u64 {
        self.fired[point.index()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let inj = FaultInjector::disabled();
        for _ in 0..1000 {
            for p in FaultPoint::ALL {
                assert!(!inj.should(p));
            }
        }
        assert!(!inj.active());
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_rate_is_respected() {
        let spec = "conn_drop=0.25,trainer_panic=0.01";
        let a = FaultInjector::parse(spec, 7).unwrap();
        let b = FaultInjector::parse(spec, 7).unwrap();
        let fires_a: Vec<bool> = (0..4000).map(|_| a.should(FaultPoint::ConnDrop)).collect();
        let fires_b: Vec<bool> = (0..4000).map(|_| b.should(FaultPoint::ConnDrop)).collect();
        assert_eq!(fires_a, fires_b, "same seed, same schedule");
        let rate = fires_a.iter().filter(|&&f| f).count() as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "empirical rate {rate} far from 0.25");

        // A different seed gives a different schedule (with overwhelming
        // probability at this length).
        let c = FaultInjector::parse(spec, 8).unwrap();
        let fires_c: Vec<bool> = (0..4000).map(|_| c.should(FaultPoint::ConnDrop)).collect();
        assert_ne!(fires_a, fires_c);
        // Points are independent: the panic arm stayed untouched above.
        assert_eq!(a.fired(FaultPoint::TrainerPanic), 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultInjector::parse("conn_drop", 0).is_err());
        assert!(FaultInjector::parse("warp_core=0.5", 0).is_err());
        assert!(FaultInjector::parse("conn_drop=1.5", 0).is_err());
        assert!(FaultInjector::parse("conn_drop=x", 0).is_err());
        assert!(FaultInjector::parse("conn_drop=1.0,conn_stall=0.0", 3).is_ok());
    }

    #[test]
    fn rate_one_always_fires_and_counts() {
        let inj = FaultInjector::parse("wal_short_write=1.0", 0).unwrap();
        for _ in 0..10 {
            assert!(inj.should(FaultPoint::WalShortWrite));
        }
        assert_eq!(inj.fired(FaultPoint::WalShortWrite), 10);
    }
}
