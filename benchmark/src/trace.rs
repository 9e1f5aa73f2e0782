//! In-memory spans recorded around the benchmark's calls into the
//! system, from outside it: name, start, end, parent and the iteration
//! the span belongs to. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Measured iteration the span belongs to (0 = outside any).
    pub iteration: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records spans while enabled; every call is a no-op while disabled,
/// which is how the untraced (end-to-end) run and the untraced
/// iterations of the traced run pay nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    iteration: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            iteration: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off and stamps subsequent spans with
    /// `iteration`. Must be called with no span open.
    pub fn set(&mut self, enabled: bool, iteration: u32) {
        assert!(self.open.is_empty(), "tracer toggled inside a span");
        self.enabled = enabled;
        self.iteration = iteration;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must nest");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals for all spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// Per-name totals with self time: a span's self time is its duration
/// minus the durations of its direct children (the driver is one
/// thread, so siblings never overlap).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}

/// Share of the wall clock of the spans named `root` that their
/// direct children account for.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let mut root_ns = 0u64;
    let mut covered_ns = 0u64;
    for s in spans {
        if s.name == root {
            root_ns += s.end_ns - s.start_ns;
        } else if s.parent.is_some_and(|p| spans[p as usize].name == root) {
            covered_ns += s.end_ns - s.start_ns;
        }
    }
    if root_ns == 0 {
        0.0
    } else {
        covered_ns as f64 / root_ns as f64
    }
}

/// Serializes the per-name totals and the first `raw_limit` spans as
/// JSON (the full span list of a per-query workload is hundreds of
/// thousands of entries; the totals are computed over all of them).
pub fn to_json(workload: &str, root: &str, spans: &[Span], raw_limit: usize) -> String {
    let mut out = format!(
        "{{\"workload\": \"{workload}\", \"spans_recorded\": {}, \"coverage\": {:.6},\n \"totals\": {{",
        spans.len(),
        coverage(spans, root)
    );
    for (i, (name, t)) in self_times(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            t.count, t.total_ns, t.self_ns
        ));
    }
    out.push_str("\n },\n \"spans\": [");
    for (i, s) in spans.iter().take(raw_limit).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "\n  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"iteration\": {}}}",
            s.name, s.start_ns, s.end_ns, s.iteration
        ));
    }
    out.push_str("\n ]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iteration: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("iteration", 0, 100, None),
            span("submit", 10, 40, Some(0)),
            span("flush", 40, 90, Some(0)),
            span("evaluate", 50, 70, Some(2)),
            span("submit", 90, 95, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["iteration"].self_ns, 100 - 30 - 50 - 5);
        assert_eq!(t["flush"].self_ns, 30);
        assert_eq!(t["evaluate"].self_ns, 20);
        assert_eq!(
            t["submit"],
            NameTotals {
                count: 2,
                total_ns: 35,
                self_ns: 35
            }
        );
        // Self times partition the root's wall clock.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
        assert!((coverage(&spans, "iteration") - 0.85).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_and_is_free_when_disabled() {
        let mut tr = Tracer::new();
        let off = tr.enter("ignored");
        tr.exit(off);
        assert!(tr.spans().is_empty());

        tr.set(true, 3);
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        tr.exit(inner);
        tr.exit(outer);
        tr.set(false, 0);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].iteration, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = to_json("w", "outer", spans, 1);
        assert!(json.contains("\"spans_recorded\": 2") && json.contains("\"outer\""));
    }
}
