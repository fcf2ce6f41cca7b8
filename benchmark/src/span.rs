//! In-memory spans recorded from outside the layers: the benchmark wraps
//! each call into a layer's public function in a span (name, start, end,
//! parent, and the id of the event that caused it), keeps them in a `Vec`,
//! and writes them out once at exit. A layer's *self time* is its span minus
//! the part its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `backend.ingest`.
    pub name: &'static str,
    /// The event (request) this span belongs to.
    pub event: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
}

/// Totals over every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Σ (end − start), ns.
    pub total_ns: u64,
    /// Σ self time, ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per span, ns.
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    event: u32,
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), event: 0 }
    }

    /// Sets the event id stamped on spans opened from now on.
    pub fn set_event(&mut self, event: u32) {
        self.event = event;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        self.enter_at(name, start_ns)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        self.exit_at(id, end_ns);
    }

    fn enter_at(&mut self, name: &'static str, start_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, event: self.event, parent, start_ns, end_ns: 0 });
        self.open.push(id);
        id
    }

    fn exit_at(&mut self, id: u32, end_ns: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, indexed like the spans.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Per-name totals over all closed spans.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        assert!(self.open.is_empty(), "totals are taken with every span closed");
        let own = self.self_times();
        let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own_ns;
        }
        by_name
    }

    /// Writes every span plus the per-name totals as one JSON document.
    pub fn write_json(&self, path: &Path, meta: &str) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"meta\":{meta},\"totals\":{{")?;
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                w,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        write!(w, "}},\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"event\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.event, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut t = Tracer::new();
        t.set_event(9);
        // root 0..100 { a 10..40 { a1 15..25 }, b 50..90 } and a second,
        // childless root 100..130.
        let root = t.enter_at("root", 0);
        let a = t.enter_at("a", 10);
        let a1 = t.enter_at("leaf", 15);
        t.exit_at(a1, 25);
        t.exit_at(a, 40);
        let b = t.enter_at("b", 50);
        t.exit_at(b, 90);
        t.exit_at(root, 100);
        let r2 = t.enter_at("root", 100);
        t.exit_at(r2, 130);

        assert_eq!(t.spans[a1 as usize].parent, Some(a));
        assert_eq!(t.spans[b as usize].parent, Some(root));
        assert_eq!(t.spans[r2 as usize].parent, None);
        assert!(t.spans.iter().all(|s| s.event == 9));
        assert_eq!(t.self_times(), vec![30, 20, 10, 40, 30]);

        let totals = t.totals();
        assert_eq!(totals["root"], Totals { count: 2, total_ns: 130, self_ns: 60 });
        assert_eq!(totals["a"], Totals { count: 1, total_ns: 30, self_ns: 20 });
        assert_eq!(totals["leaf"].self_ns, 10);
        assert_eq!(totals["root"].mean_self_ns(), 30.0);
        // Self times partition the roots' wall time.
        assert_eq!(totals.values().map(|x| x.self_ns).sum::<u64>(), 130);
    }

    #[test]
    fn time_wraps_a_closure_and_nests() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        let v = t.time("inner", || 7);
        t.exit(outer);
        assert_eq!(v, 7);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
