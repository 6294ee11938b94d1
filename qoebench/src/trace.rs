//! Spans recorded from the benchmark's own code around calls into the
//! program's layers. Spans are kept in memory and written out when the
//! run ends; a layer's self time is its span minus its child spans.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: name, start and end (ns since the tracer started),
/// and the index of the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.annotate`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed duration minus the durations of direct children, ms.
    pub self_ms: f64,
}

/// Mean duration (ms) of the spans named `name` in `totals`; 0 if none.
pub fn mean_ms(totals: &BTreeMap<&'static str, Totals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |x| x.total_ms / x.count.max(1) as f64)
}

/// An in-memory span recorder. A disabled tracer runs the closures and
/// records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        self.totals_where(&vec![true; self.spans.len()])
    }

    /// Totals per span name over `root`-named spans and everything
    /// nested in them.
    pub fn totals_under(&self, root: &str) -> BTreeMap<&'static str, Totals> {
        let mut inside = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            // Parents precede their children in `spans`.
            inside[i] = s.name == root || s.parent.is_some_and(|p| inside[p]);
        }
        self.totals_where(&inside)
    }

    fn totals_where(&self, keep: &[bool]) -> BTreeMap<&'static str, Totals> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for ((s, children), _) in self.spans.iter().zip(child_ms).zip(keep).filter(|(_, k)| **k) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += s.ms();
            t.self_ms += s.ms() - children;
        }
        out
    }

    /// Durations (ms) of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// For each span named `parent`, the summed duration of its direct
    /// children, ms.
    pub fn child_sums(&self, parent: &str) -> Vec<f64> {
        let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == parent {
                sums.insert(i, 0.0);
            }
        }
        for s in &self.spans {
            if let Some(sum) = s.parent.and_then(|p| sums.get_mut(&p)) {
                *sum += s.ms();
            }
        }
        sums.into_values().collect()
    }

    /// The spans as a Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"id\":{},\"parent\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    i,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("op", |t| {
            spin(5);
            t.span("child", |_| spin(10));
            t.span("child", |_| spin(10));
        });
        let totals = t.totals();
        let op = totals["op"];
        let child = totals["child"];
        assert_eq!(child.count, 2);
        assert!((op.total_ms - op.self_ms - child.total_ms).abs() < 1e-6);
        assert!(op.self_ms >= 5.0 && op.self_ms < child.total_ms);
        assert_eq!(t.child_sums("op").len(), 1);
        assert!((t.child_sums("op")[0] - child.total_ms).abs() < 1e-6);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn subtree_totals_keep_only_nested_spans() {
        let mut t = Tracer::new(true);
        t.span("a.op", |t| t.span("leaf", |_| ()));
        t.span("b.op", |t| t.span("mid", |t| t.span("leaf", |_| ())));
        let under = t.totals_under("b.op");
        assert_eq!(under.len(), 3);
        assert_eq!(under["leaf"].count, 1);
        assert!(!under.contains_key("a.op"));
        assert_eq!(t.totals()["leaf"].count, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", |t| t.span("child", |_| 7)), 7);
        assert!(t.spans().is_empty());
        assert!(t.totals().is_empty());
    }
}
