//! Renders registries as Prometheus text-exposition format or JSON.
//!
//! Both renderers accept a *slice* of registries because the serve daemon
//! exposes its own per-instance registry merged with the process-global
//! one (library instrumentation). Metric names are disjoint by the naming
//! convention (`seqge_serve_*` vs `seqge_core_*` / `seqge_pipeline_*`),
//! so concatenation is a merge.
//!
//! Histograms are exported Prometheus-summary-style: `quantile` labels for
//! p50/p90/p99 plus `_sum`, `_count`, and a companion `<name>_max` gauge
//! (summaries have no native max series).

use crate::registry::{Metric, MetricKey, Registry};

/// Quantiles exported for every histogram.
pub const EXPORT_QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// Escapes a Prometheus label *value* per the text-exposition rules: the
/// only escapes are `\\`, `\"`, and `\n` (in that checking order so a
/// backslash never double-escapes). Everything else passes through.
fn prom_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v))).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", prom_escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Renders `registries` in Prometheus text-exposition format (0.0.4).
pub fn prometheus(registries: &[&Registry]) -> String {
    let mut out = String::new();
    let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut type_line = |out: &mut String, name: &str, kind: &str| {
        if typed.insert(name.to_string()) {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
        }
    };
    for reg in registries {
        let metrics = reg.metrics.lock().expect("registry poisoned");
        for (MetricKey { name, labels }, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    type_line(&mut out, name, "counter");
                    out.push_str(&format!("{name}{} {}\n", label_block(labels, None), c.get()));
                }
                Metric::Gauge(g) => {
                    type_line(&mut out, name, "gauge");
                    out.push_str(&format!("{name}{} {}\n", label_block(labels, None), g.get()));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    type_line(&mut out, name, "summary");
                    for (q, qs) in EXPORT_QUANTILES {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            label_block(labels, Some(("quantile", qs))),
                            fmt_f64(snap.quantile(q))
                        ));
                    }
                    let plain = label_block(labels, None);
                    out.push_str(&format!("{name}_sum{plain} {}\n", snap.sum));
                    out.push_str(&format!("{name}_count{plain} {}\n", snap.count));
                    let max_name = format!("{name}_max");
                    type_line(&mut out, &max_name, "gauge");
                    out.push_str(&format!("{max_name}{plain} {}\n", snap.max));
                }
            }
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    crate::log::escape_into(&mut out, s);
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Renders `registries` as one JSON document:
///
/// ```json
/// {"counters":[{"name":..,"labels":{..},"value":N}],
///  "gauges":[...],
///  "histograms":[{"name":..,"labels":{..},"count":N,"sum":N,"max":N,
///                 "mean":X,"p50":X,"p90":X,"p99":X}]}
/// ```
pub fn dump_json(registries: &[&Registry]) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut hists = Vec::new();
    for reg in registries {
        let metrics = reg.metrics.lock().expect("registry poisoned");
        for (MetricKey { name, labels }, metric) in metrics.iter() {
            let name = json_escape(name);
            let labels = json_labels(labels);
            match metric {
                Metric::Counter(c) => counters.push(format!(
                    "{{\"name\":\"{name}\",\"labels\":{labels},\"value\":{}}}",
                    c.get()
                )),
                Metric::Gauge(g) => gauges.push(format!(
                    "{{\"name\":\"{name}\",\"labels\":{labels},\"value\":{}}}",
                    g.get()
                )),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    hists.push(format!(
                        "{{\"name\":\"{name}\",\"labels\":{labels},\"count\":{},\"sum\":{},\
                         \"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                        s.count,
                        s.sum,
                        s.max,
                        fmt_f64(s.mean()),
                        fmt_f64(s.quantile(0.5)),
                        fmt_f64(s.quantile(0.9)),
                        fmt_f64(s.quantile(0.99)),
                    ))
                }
            }
        }
    }
    format!(
        "{{\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}",
        counters.join(","),
        gauges.join(","),
        hists.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("seqge_x_total").add(5);
        r.counter_with("seqge_ops_total", &[("op", "ping")]).add(2);
        r.counter_with("seqge_ops_total", &[("op", "stats")]).add(3);
        r.gauge("seqge_depth").set(-4);
        let h = r.histogram("seqge_lat_ns");
        for v in [100u64, 200, 300, 400, 5_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = sample_registry();
        let text = prometheus(&[&r]);
        assert!(text.contains("# TYPE seqge_x_total counter\n"), "{text}");
        assert!(text.contains("seqge_x_total 5\n"));
        assert!(text.contains("seqge_ops_total{op=\"ping\"} 2\n"));
        assert!(text.contains("seqge_ops_total{op=\"stats\"} 3\n"));
        // TYPE emitted once per family even with two label sets.
        assert_eq!(text.matches("# TYPE seqge_ops_total counter").count(), 1);
        assert!(text.contains("# TYPE seqge_depth gauge\n"));
        assert!(text.contains("seqge_depth -4\n"));
        assert!(text.contains("# TYPE seqge_lat_ns summary\n"));
        assert!(text.contains("seqge_lat_ns{quantile=\"0.5\"}"));
        assert!(text.contains("seqge_lat_ns{quantile=\"0.99\"}"));
        assert!(text.contains("seqge_lat_ns_sum 6000\n"));
        assert!(text.contains("seqge_lat_ns_count 5\n"));
        assert!(text.contains("seqge_lat_ns_max 5000\n"));
        // Every non-comment line is `name{labels}? value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparseable value in line: {line}");
            assert!(parts.next().is_some(), "no metric id in line: {line}");
        }
    }

    #[test]
    fn json_dump_round_trips_structurally() {
        let r = sample_registry();
        let text = dump_json(&[&r]);
        // Cheap structural checks without a parser dependency: balanced
        // braces, expected keys, expected values.
        assert!(text.starts_with("{\"counters\":["));
        assert!(text.contains("\"name\":\"seqge_x_total\",\"labels\":{},\"value\":5"));
        assert!(text.contains("\"op\":\"ping\""));
        assert!(text.contains("\"count\":5"));
        assert!(text.contains("\"p99\":"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn merging_registries_concatenates_series() {
        let a = Registry::new();
        a.counter("seqge_a_total").inc();
        let b = Registry::new();
        b.counter("seqge_b_total").add(2);
        let text = prometheus(&[&a, &b]);
        assert!(text.contains("seqge_a_total 1\n"));
        assert!(text.contains("seqge_b_total 2\n"));
        let js = dump_json(&[&a, &b]);
        assert!(js.contains("seqge_a_total") && js.contains("seqge_b_total"));
    }

    #[test]
    fn empty_registry_renders_empty_documents() {
        let r = Registry::new();
        assert_eq!(prometheus(&[&r]), "");
        assert_eq!(dump_json(&[&r]), "{\"counters\":[],\"gauges\":[],\"histograms\":[]}");
        // Zero registries and several empty registries degrade the same way.
        assert_eq!(prometheus(&[]), "");
        let (a, b) = (Registry::new(), Registry::new());
        assert_eq!(prometheus(&[&a, &b]), "");
        assert_eq!(dump_json(&[]), "{\"counters\":[],\"gauges\":[],\"histograms\":[]}");
    }

    #[test]
    fn label_values_escape_backslash_quote_newline() {
        let r = Registry::new();
        r.counter_with("seqge_esc_total", &[("path", "a\\b\"c\nd")]).inc();
        let text = prometheus(&[&r]);
        // Exposition-format escapes, exactly: \\ then \" then \n.
        assert!(
            text.contains(r#"seqge_esc_total{path="a\\b\"c\nd"} 1"#),
            "unexpected escaping: {text}"
        );
        // The physical line must not be split by the raw newline.
        assert_eq!(text.lines().filter(|l| l.starts_with("seqge_esc_total")).count(), 1);
        // The JSON dump escapes the same value with JSON rules and stays
        // on one line too.
        let js = dump_json(&[&r]);
        assert!(js.contains(r#""path":"a\\b\"c\nd""#), "{js}");
        assert_eq!(js.lines().count(), 1);
    }

    #[test]
    fn histogram_label_quantile_block_is_escaped_once() {
        let r = Registry::new();
        r.histogram_with("seqge_esc_ns", &[("op", "to\"pk")]).record(7);
        let text = prometheus(&[&r]);
        assert!(text.contains(r#"seqge_esc_ns{op="to\"pk",quantile="0.5"}"#), "{text}");
        assert!(text.contains(r#"seqge_esc_ns_sum{op="to\"pk"} 7"#), "{text}");
    }

    #[test]
    fn empty_histogram_exports_are_nan_free() {
        let r = Registry::new();
        r.histogram("seqge_empty_ns"); // registered, never recorded
        let text = prometheus(&[&r]);
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        assert!(text.contains("seqge_empty_ns{quantile=\"0.5\"} 0\n"));
        assert!(text.contains("seqge_empty_ns{quantile=\"0.99\"} 0\n"));
        assert!(text.contains("seqge_empty_ns_sum 0\n"));
        assert!(text.contains("seqge_empty_ns_count 0\n"));
        assert!(text.contains("seqge_empty_ns_max 0\n"));
        let js = dump_json(&[&r]);
        assert!(!js.contains("NaN"), "{js}");
        assert!(js.contains("\"count\":0,\"sum\":0,\"max\":0,\"mean\":0,\"p50\":0"));
    }

    /// Locks the full text rendering of a small registry so any formatting
    /// drift (spacing, ordering, TYPE lines) is caught exactly.
    #[test]
    fn text_format_golden() {
        let r = Registry::new();
        r.counter_with("seqge_ops_total", &[("op", "ping")]).add(2);
        r.gauge("seqge_depth").set(3);
        r.histogram("seqge_lat_ns").record(100);
        let text = prometheus(&[&r]);
        let expected = "\
# TYPE seqge_depth gauge
seqge_depth 3
# TYPE seqge_lat_ns summary
seqge_lat_ns{quantile=\"0.5\"} 100
seqge_lat_ns{quantile=\"0.9\"} 100
seqge_lat_ns{quantile=\"0.99\"} 100
seqge_lat_ns_sum 100
seqge_lat_ns_count 1
# TYPE seqge_lat_ns_max gauge
seqge_lat_ns_max 100
# TYPE seqge_ops_total counter
seqge_ops_total{op=\"ping\"} 2
";
        assert_eq!(text, expected);
    }
}
