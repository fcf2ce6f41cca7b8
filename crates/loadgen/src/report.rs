//! The accounting plane: reply classification, per-op/per-window metrics,
//! and the machine-readable run report (`seqge loadgen --json FILE`).
//!
//! Every reply is classified into an [`Outcome`] by the protocol's `code`
//! field (see `seqge_serve::protocol`). Latencies land in
//! client-side `seqge-obs` log-histograms labeled `{op, window}`; outcomes
//! and SLO violations in counters with the same label split. The report
//! is aggregated from the registry at the end of the run, so the hot path
//! is lock-free counter bumps — the same discipline the server itself
//! uses.

use crate::slo::Slo;
use crate::workload::OP_LABELS;
use seqge_obs::{Histogram, Registry};
use seqge_serve::protocol::{CODE_DEGRADED, CODE_OVERLOADED};
use serde::Serialize;
use serde_json::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Exemplar trace ids retained per `(op, window)` SLO-violation bucket —
/// enough to pull a few representative span trees out of the server's
/// `trace` op without unbounded growth.
pub const MAX_EXEMPLARS: usize = 5;

/// The accounting windows, in report order.
pub const WINDOWS: [&str; 2] = ["steady", "fault"];

/// What a reply (or its absence) meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `ok:true`, full-fidelity answer.
    Ok,
    /// Served, but degraded: partial scatter-gather, replica fallback, or
    /// an explicit `code:"degraded"` refusal.
    Degraded,
    /// Load-shed: `code:"overloaded"` — the backpressure plane working as
    /// designed, retryable.
    Shed,
    /// A hard protocol error (validation failure, unknown op, malformed
    /// reply) — these are bugs, CI asserts zero.
    HardError,
    /// The transport died (connect/read/write failure, timeout).
    Transport,
}

impl Outcome {
    /// The metric/report label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::Shed => "shed",
            Outcome::HardError => "hard_error",
            Outcome::Transport => "transport",
        }
    }
}

/// Classifies one raw reply line. The `code` field is authoritative: an
/// `ok:false` reply without one is a hard error, and so is an unparseable
/// line (the server must always answer one JSON object).
pub fn classify(line: &str) -> Outcome {
    let Ok(v) = serde_json::from_str::<Value>(line) else {
        return Outcome::HardError;
    };
    let code = v.get("code").and_then(Value::as_str);
    match v.get("ok") {
        Some(&Value::Bool(true)) => {
            let degraded = code == Some(CODE_DEGRADED)
                || v.get("degraded") == Some(&Value::Bool(true))
                || v.get("source").and_then(Value::as_str) == Some("replica");
            if degraded {
                Outcome::Degraded
            } else {
                Outcome::Ok
            }
        }
        Some(&Value::Bool(false)) => match code {
            Some(CODE_OVERLOADED) => Outcome::Shed,
            Some(CODE_DEGRADED) => Outcome::Degraded,
            _ => Outcome::HardError,
        },
        _ => Outcome::HardError,
    }
}

/// The run's metric sink: a private registry (not the process-global one,
/// so an in-process server under test can't bleed into client accounting).
pub struct Accounting {
    registry: Registry,
    slo: Slo,
    /// `(op, window) -> exemplar trace ids` for SLO-violating samples.
    /// Registries hold only numbers, so the ids live beside one; the
    /// mutex is taken only on a violation (never on the happy path).
    exemplars: Mutex<HashMap<(String, String), Vec<String>>>,
}

impl Accounting {
    /// A fresh sink enforcing `slo`.
    pub fn new(slo: Slo) -> Self {
        Accounting { registry: Registry::new(), slo, exemplars: Mutex::new(HashMap::new()) }
    }

    /// The SLO in force.
    pub fn slo(&self) -> &Slo {
        &self.slo
    }

    /// Records one completed op: outcome, latency (for answered ops), and
    /// the per-sample SLO check. `latency_ns` is `None` for transport
    /// failures, which have no meaningful service time. `trace_id` (the
    /// context the driver attached to the request) is kept as an exemplar
    /// when the sample violates its SLO, so the report links straight to
    /// the server-side span tree.
    pub fn record(
        &self,
        op: &str,
        window: &str,
        outcome: Outcome,
        latency_ns: Option<u64>,
        trace_id: Option<u64>,
    ) {
        self.registry
            .counter_with(
                "seqge_loadgen_outcomes_total",
                &[("op", op), ("window", window), ("outcome", outcome.label())],
            )
            .inc();
        if let Some(ns) = latency_ns {
            self.latency(op, window).record(ns);
            if self.slo.violates(op, ns as f64 / 1e6) {
                self.registry
                    .counter_with(
                        "seqge_loadgen_slo_violations_total",
                        &[("op", op), ("window", window)],
                    )
                    .inc();
                if let Some(id) = trace_id {
                    let mut ex = self.exemplars.lock().expect("exemplar store poisoned");
                    let bucket = ex.entry((op.to_string(), window.to_string())).or_default();
                    if bucket.len() < MAX_EXEMPLARS {
                        bucket.push(seqge_obs::trace::fmt_id(id));
                    }
                }
            }
        }
    }

    fn latency(&self, op: &str, window: &str) -> Arc<Histogram> {
        self.registry.histogram_with("seqge_loadgen_latency_ns", &[("op", op), ("window", window)])
    }

    fn outcome_count(&self, op: &str, window: &str, outcome: Outcome) -> u64 {
        self.registry
            .counter_with(
                "seqge_loadgen_outcomes_total",
                &[("op", op), ("window", window), ("outcome", outcome.label())],
            )
            .get()
    }

    fn violations(&self, op: &str, window: &str) -> u64 {
        self.registry
            .counter_with("seqge_loadgen_slo_violations_total", &[("op", op), ("window", window)])
            .get()
    }

    /// Aggregates everything recorded so far into the report.
    pub fn report(&self, meta: RunMeta) -> Report {
        let windows: Vec<WindowReport> = WINDOWS.iter().map(|w| self.window_report(w)).collect();
        let steady = &windows[0];
        let steady_ok_rate = if steady.ops == 0 {
            1.0
        } else {
            (steady.ok + steady.degraded + steady.shed) as f64 / steady.ops as f64
        };
        let steady_topk_p99_ms = steady
            .per_op
            .iter()
            .filter(|o| o.op.starts_with("topk"))
            .map(|o| o.p99_ms)
            .fold(0.0f64, f64::max);
        let slo = SloReport {
            max_error_rate: self.slo.max_error_rate,
            targets: self
                .slo
                .p99_ms
                .iter()
                .map(|&(op, target_ms)| {
                    let measured =
                        steady.per_op.iter().find(|o| o.op == op).map(|o| o.p99_ms).unwrap_or(0.0);
                    SloEntry {
                        op: op.to_string(),
                        target_p99_ms: target_ms,
                        steady_p99_ms: measured,
                        pass: measured <= target_ms,
                    }
                })
                .collect(),
        };
        let slo_pass =
            slo.targets.iter().all(|t| t.pass) && steady.error_rate <= self.slo.max_error_rate;
        let total_ops = windows.iter().map(|w| w.ops).sum();
        let mut exemplars: Vec<ExemplarReport> = self
            .exemplars
            .lock()
            .expect("exemplar store poisoned")
            .iter()
            .map(|((op, window), ids)| ExemplarReport {
                op: op.clone(),
                window: window.clone(),
                trace_ids: ids.clone(),
            })
            .collect();
        exemplars.sort_by(|a, b| (&a.op, &a.window).cmp(&(&b.op, &b.window)));
        Report {
            scenario: meta.scenario,
            target: meta.target,
            seed: meta.seed,
            connections: meta.connections,
            scale: meta.scale,
            nodes: meta.nodes,
            backend: meta.backend,
            schedule_hash: meta.schedule_hash,
            wall_s: meta.wall_s,
            total_ops,
            steady_ok_rate,
            steady_topk_p99_ms,
            slo_pass,
            windows,
            slo,
            exemplars,
        }
    }

    fn window_report(&self, window: &str) -> WindowReport {
        let mut per_op = Vec::new();
        let (mut ops, mut ok, mut degraded, mut shed, mut hard, mut transport, mut viol) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for op in OP_LABELS {
            let h = self.latency(op, window);
            let counts = [
                self.outcome_count(op, window, Outcome::Ok),
                self.outcome_count(op, window, Outcome::Degraded),
                self.outcome_count(op, window, Outcome::Shed),
                self.outcome_count(op, window, Outcome::HardError),
                self.outcome_count(op, window, Outcome::Transport),
            ];
            let op_total: u64 = counts.iter().sum();
            ops += op_total;
            ok += counts[0];
            degraded += counts[1];
            shed += counts[2];
            hard += counts[3];
            transport += counts[4];
            viol += self.violations(op, window);
            if op_total > 0 {
                per_op.push(OpReport {
                    op: op.to_string(),
                    count: op_total,
                    p50_ms: h.quantile(0.50) / 1e6,
                    p90_ms: h.quantile(0.90) / 1e6,
                    p99_ms: h.quantile(0.99) / 1e6,
                    max_ms: h.max() as f64 / 1e6,
                });
            }
        }
        WindowReport {
            window: window.to_string(),
            ops,
            ok,
            degraded,
            shed,
            hard_errors: hard,
            transport_errors: transport,
            slo_violations: viol,
            error_rate: if ops == 0 { 0.0 } else { (hard + transport) as f64 / ops as f64 },
            per_op,
        }
    }
}

/// Run identity threaded into the report.
pub struct RunMeta {
    /// Scenario name.
    pub scenario: String,
    /// `host:port` driven.
    pub target: String,
    /// The `--seed`.
    pub seed: u64,
    /// Concurrent connections.
    pub connections: usize,
    /// The `--scale` multiplier.
    pub scale: f64,
    /// Vertex count assumed for key generation.
    pub nodes: u32,
    /// Training backend the target reported in its `stats` reply
    /// (`"unknown"` for targets predating the descriptor).
    pub backend: String,
    /// Hex FNV-1a of the full materialized schedule.
    pub schedule_hash: String,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
}

/// The machine-readable run report (`seqge loadgen --json FILE`).
#[derive(Serialize)]
pub struct Report {
    /// Scenario name.
    pub scenario: String,
    /// Target address driven.
    pub target: String,
    /// Seed the schedule was generated from.
    pub seed: u64,
    /// Concurrent connections.
    pub connections: usize,
    /// Scale multiplier applied to phase op counts.
    pub scale: f64,
    /// Vertex count used for key generation.
    pub nodes: u32,
    /// Training backend the target runs (from its `stats` descriptor), so
    /// load reports for `float` and `fpga-sim` targets are comparable
    /// side by side.
    pub backend: String,
    /// Determinism witness: identical for identical `(scenario, nodes,
    /// connections, seed, scale)`.
    pub schedule_hash: String,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Ops across all windows.
    pub total_ops: u64,
    /// Steady-window `(ok + degraded + shed) / ops` — the gate's
    /// availability floor (shed is correct backpressure, not failure).
    pub steady_ok_rate: f64,
    /// Worst steady-window topk p99 (exact or ann), ms — the gate's
    /// banded latency headline.
    pub steady_topk_p99_ms: f64,
    /// Verdict: steady p99s under target and error rate within budget.
    pub slo_pass: bool,
    /// Per-window breakdowns (steady first, then fault).
    pub windows: Vec<WindowReport>,
    /// The SLO in force and how the steady window measured against it.
    pub slo: SloReport,
    /// Exemplar trace ids per SLO-violating `(op, window)` bucket — feed
    /// one to `seqge obs trace` to pull the full span tree.
    pub exemplars: Vec<ExemplarReport>,
}

/// Exemplar trace ids for one SLO-violating `(op, window)` bucket.
#[derive(Serialize)]
pub struct ExemplarReport {
    /// Op label.
    pub op: String,
    /// Accounting window.
    pub window: String,
    /// Up to [`MAX_EXEMPLARS`] 16-hex-digit trace ids.
    pub trace_ids: Vec<String>,
}

/// One accounting window's totals.
#[derive(Serialize)]
pub struct WindowReport {
    /// `"steady"` or `"fault"`.
    pub window: String,
    /// Ops attempted in this window.
    pub ops: u64,
    /// Full-fidelity successes.
    pub ok: u64,
    /// Degraded (partial / replica / explicit degraded refusal).
    pub degraded: u64,
    /// Load-shed replies.
    pub shed: u64,
    /// Hard protocol errors.
    pub hard_errors: u64,
    /// Transport failures.
    pub transport_errors: u64,
    /// Per-sample SLO violations.
    pub slo_violations: u64,
    /// `(hard + transport) / ops`.
    pub error_rate: f64,
    /// Per-op latency breakdown (answered ops only).
    pub per_op: Vec<OpReport>,
}

/// One op's latency profile within a window.
#[derive(Serialize)]
pub struct OpReport {
    /// Op label (see [`OP_LABELS`]).
    pub op: String,
    /// Ops attempted.
    pub count: u64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// p90 latency, ms.
    pub p90_ms: f64,
    /// p99 latency, ms.
    pub p99_ms: f64,
    /// Worst observed, ms.
    pub max_ms: f64,
}

/// The SLO section of the report.
#[derive(Serialize)]
pub struct SloReport {
    /// Error-rate ceiling applied to the steady window.
    pub max_error_rate: f64,
    /// Per-op targets vs steady-window measurements.
    pub targets: Vec<SloEntry>,
}

/// One op's SLO verdict.
#[derive(Serialize)]
pub struct SloEntry {
    /// Op label.
    pub op: String,
    /// Target p99, ms.
    pub target_p99_ms: f64,
    /// Measured steady-window p99, ms (0 when the op never ran).
    pub steady_p99_ms: f64,
    /// Whether the measurement met the target.
    pub pass: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_honors_the_code_field_first() {
        assert_eq!(classify(r#"{"ok":true,"dim":8}"#), Outcome::Ok);
        assert_eq!(classify(r#"{"ok":true,"degraded":true,"code":"degraded"}"#), Outcome::Degraded);
        assert_eq!(
            classify(r#"{"ok":true,"source":"replica","code":"degraded"}"#),
            Outcome::Degraded
        );
        assert_eq!(
            classify(r#"{"ok":false,"code":"overloaded","error":"overloaded: backlog"}"#),
            Outcome::Shed
        );
        assert_eq!(
            classify(r#"{"ok":false,"code":"degraded","error":"degraded: no shard"}"#),
            Outcome::Degraded
        );
        assert_eq!(classify(r#"{"ok":false,"error":"u and v must differ"}"#), Outcome::HardError);
        // No code, no special meaning — whatever the message starts with.
        assert_eq!(
            classify(r#"{"ok":false,"error":"overloaded: trainer backlog"}"#),
            Outcome::HardError
        );
        assert_eq!(classify("not json at all"), Outcome::HardError);
        assert_eq!(classify(r#"{"no_ok_field":1}"#), Outcome::HardError);
    }

    #[test]
    fn real_protocol_builders_classify_as_expected() {
        use seqge_serve::protocol::Response;
        assert_eq!(classify(&Response::ok().field("dim", 4u32).build()), Outcome::Ok);
        assert_eq!(
            classify(&Response::err_code(CODE_OVERLOADED, "overloaded: queue full")),
            Outcome::Shed
        );
        assert_eq!(
            classify(&Response::err_code(CODE_DEGRADED, "degraded: no shard reachable")),
            Outcome::Degraded
        );
        assert_eq!(classify(&Response::err("node 9 out of range")), Outcome::HardError);
    }

    #[test]
    fn report_splits_windows_and_flags_slo_breaches() {
        let acc = Accounting::new(Slo { p99_ms: vec![("topk_exact", 5.0)], max_error_rate: 0.5 });
        // Steady: 3 fast oks; fault: one slow (violating) op and one shed.
        for _ in 0..3 {
            acc.record("topk_exact", "steady", Outcome::Ok, Some(1_000_000), None);
        }
        acc.record("topk_exact", "fault", Outcome::Ok, Some(50_000_000), Some(0xabcd));
        acc.record("topk_exact", "fault", Outcome::Shed, None, None);
        acc.record("add_edge", "fault", Outcome::HardError, None, None);
        let meta = RunMeta {
            scenario: "t".into(),
            target: "t".into(),
            seed: 1,
            connections: 1,
            scale: 1.0,
            nodes: 8,
            backend: "float".into(),
            schedule_hash: "00".into(),
            wall_s: 0.1,
        };
        let r = acc.report(meta);
        assert_eq!(r.total_ops, 6);
        assert_eq!(r.windows[0].window, "steady");
        assert_eq!(r.windows[0].ops, 3);
        assert_eq!(r.windows[0].slo_violations, 0);
        assert_eq!(r.windows[1].ops, 3);
        assert_eq!(r.windows[1].slo_violations, 1, "the 50ms fault-window op breaches 5ms");
        assert_eq!(r.windows[1].shed, 1);
        assert_eq!(r.windows[1].hard_errors, 1);
        assert!(r.slo_pass, "fault-window breaches must not fail the steady verdict");
        assert!((r.steady_ok_rate - 1.0).abs() < 1e-9);
        // The violating sample carried a trace id: it must surface as an
        // exemplar for its (op, window) bucket.
        assert_eq!(r.exemplars.len(), 1);
        assert_eq!(r.exemplars[0].op, "topk_exact");
        assert_eq!(r.exemplars[0].window, "fault");
        assert_eq!(r.exemplars[0].trace_ids, vec!["000000000000abcd".to_string()]);
        // Serializes into the schema the gate scrapes.
        let json = serde_json::to_string_pretty(&r).unwrap();
        for key in
            ["steady_ok_rate", "steady_topk_p99_ms", "schedule_hash", "slo_pass", "exemplars"]
        {
            assert!(json.contains(key), "report missing {key}");
        }
        assert!(json.contains("000000000000abcd"), "exemplar trace id serialized");
    }

    #[test]
    fn exemplars_cap_at_max_and_skip_non_violations() {
        let acc = Accounting::new(Slo { p99_ms: vec![("topk_exact", 5.0)], max_error_rate: 0.5 });
        for i in 0..(MAX_EXEMPLARS as u64 + 3) {
            acc.record("topk_exact", "steady", Outcome::Ok, Some(50_000_000), Some(i + 1));
        }
        // Fast sample with a trace id: no violation, no exemplar.
        acc.record("topk_exact", "fault", Outcome::Ok, Some(1_000_000), Some(99));
        let meta = RunMeta {
            scenario: "t".into(),
            target: "t".into(),
            seed: 1,
            connections: 1,
            scale: 1.0,
            nodes: 8,
            backend: "float".into(),
            schedule_hash: "00".into(),
            wall_s: 0.1,
        };
        let r = acc.report(meta);
        assert_eq!(r.exemplars.len(), 1, "only the violating bucket collects exemplars");
        assert_eq!(r.exemplars[0].trace_ids.len(), MAX_EXEMPLARS);
    }
}
