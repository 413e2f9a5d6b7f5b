//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API. Spans are kept in memory while the run is timed and are
//! written out once, when it finishes; the self time of a span is its
//! duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.engine.run`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one measured run.
    pub run_id: u32,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; spans nest by call structure.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u32,
}

impl Tracer {
    /// A tracer for run `run_id` whose clock starts now.
    pub fn new(run_id: u32) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// the span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Renders every span plus a per-name summary (count, total and
    /// self time) as JSON.
    pub fn to_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, &own) in self.spans.iter().zip(&selfs) {
            let entry = by_name.entry(&span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += own;
        }
        let mut out = String::from("{\n  \"summary\": [\n");
        for (i, (name, (count, total, own))) in by_name.iter().enumerate() {
            let sep = if i + 1 == by_name.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{name}\", \"count\": {count}, \"total_s\": {}, \"self_s\": {}}}{sep}",
                *total as f64 * 1e-9,
                *own as f64 * 1e-9
            );
        }
        out.push_str("  ],\n  \"spans\": [\n");
        for (i, (span, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}{sep}",
                span.name, span.run_id, span.start_ns, span.end_ns
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. Overlapping children (as
/// from worker threads) are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 12, 40, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            // Reaches past its parent's end: only [90, 100] is covered.
            span("z", 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times_ns(&[span("leaf", 5, 17, None)]), vec![12]);
    }

    #[test]
    fn spans_nest_by_call_structure() {
        let mut tracer = Tracer::new(1);
        let (value, _) = tracer.span("outer", |t| t.span("inner", |_| 7).0);
        assert_eq!(value, 7);
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = tracer.to_json();
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"self_s\""));
    }
}
