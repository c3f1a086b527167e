//! The benchmark's own span recorder.
//!
//! A span is recorded from *outside* the program under test, around a
//! call into one layer's public functions: name, start and end in
//! timestamp-counter cycles, and the span that caused it. All spans of a
//! workload share the workload's name as their trace id. Spans stay in
//! memory until the pass ends and are then written out as one JSON file.
//!
//! The in-pipeline stage tree cannot be recorded this way (spans inside
//! `crates/` are a later issue); `profile_stages` only reports a cycle
//! total per stage. Those totals are laid into the tree as *aggregate*
//! spans — `aggregate: true`, their interval is a length, not a time of
//! day — so one self-time rule covers both kinds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use retina_core::util::rdtsc;
use retina_telemetry::json::escape;

/// Index of a span in its recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// Position of the span in [`Recorder::spans`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.parse`.
    pub name: String,
    /// Start, in cycles.
    pub start: u64,
    /// End, in cycles (0 while the span is open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Work items the span covered (packets, calls, ...).
    pub items: u64,
    /// True for a cycle total laid into the tree (see module docs).
    pub aggregate: bool,
}

impl Span {
    /// The span's duration in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-name roll-up of a trace: what the report prints per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerTotal {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Work items over those spans.
    pub items: u64,
    /// Total duration, cycles.
    pub cycles: u64,
    /// Total self time, cycles.
    pub self_cycles: u64,
}

/// In-memory span store for one workload's traced pass.
#[derive(Debug)]
pub struct Recorder {
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// Starts a trace for `workload`. Room for the spans is reserved up
    /// front so recording does not allocate inside a timed region.
    pub fn new(workload: &str) -> Self {
        Recorder {
            workload: workload.to_string(),
            spans: Vec::with_capacity(4096),
            open: Vec::with_capacity(16),
        }
    }

    /// Opens a span under the innermost open span. The counter is read
    /// last, after the bookkeeping.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: 0,
            end: 0,
            parent: self.open.last().copied(),
            items: 0,
            aggregate: false,
        });
        self.open.push(idx);
        self.spans[idx].start = rdtsc();
        SpanId(idx)
    }

    /// Closes the innermost open span, which must be `id`. The counter
    /// is read first. Returns the span's duration in cycles.
    ///
    /// # Panics
    /// Panics if `id` is not the innermost open span.
    pub fn exit(&mut self, id: SpanId, items: u64) -> u64 {
        let end = rdtsc();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id.0];
        span.end = end.max(span.start);
        span.items = items;
        span.cycles()
    }

    /// Lays cycle totals into `parent` as aggregate child spans, one
    /// after another from the parent's start. `children` nests: each
    /// entry is `(name, cycles, items, its own children)`.
    ///
    /// Spans are appended depth-first; returns the index of the first.
    pub fn add_aggregates(&mut self, parent: SpanId, children: &[Aggregate<'_>]) -> usize {
        let first = self.spans.len();
        let start = self.spans[parent.0].start;
        self.lay(parent.0, start, children);
        first
    }

    fn lay(&mut self, parent: usize, mut cursor: u64, children: &[Aggregate<'_>]) {
        for child in children {
            let idx = self.spans.len();
            self.spans.push(Span {
                name: child.name.to_string(),
                start: cursor,
                end: cursor + child.cycles,
                parent: Some(parent),
                items: child.items,
                aggregate: true,
            });
            self.lay(idx, cursor, child.children);
            cursor += child.cycles;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in cycles: its duration minus the part
    /// of its interval that its child spans cover (overlapping children
    /// are not subtracted twice; a child reaching outside its parent
    /// only counts for the part inside).
    pub fn self_cycles(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let lo = span.start.max(parent.start);
                let hi = span.end.min(parent.end);
                if hi > lo {
                    kids[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(span, mut intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start;
                for (lo, hi) in intervals {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                span.cycles() - covered
            })
            .collect()
    }

    /// Per-name totals, in name order.
    pub fn layer_totals(&self) -> BTreeMap<String, LayerTotal> {
        let mut out: BTreeMap<String, LayerTotal> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_cycles()) {
            let t = out.entry(span.name.clone()).or_default();
            t.spans += 1;
            t.items += span.items;
            t.cycles += span.cycles();
            t.self_cycles += own;
        }
        out
    }

    /// The trace as JSON: `cycles_per_ns` converts every cycle figure.
    pub fn to_json(&self, cycles_per_ns: f64) -> String {
        let own = self.self_cycles();
        let mut out = String::with_capacity(self.spans.len() * 160);
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"cycles_per_ns\":{cycles_per_ns},\"spans\":[",
            escape(&self.workload)
        );
        for (i, (span, own)) in self.spans.iter().zip(own).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"parent\":{parent},\"name\":{},\"start\":{},\"end\":{},\
                 \"self\":{own},\"items\":{},\"aggregate\":{}}}",
                escape(&span.name),
                span.start,
                span.end,
                span.items,
                span.aggregate,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A cycle total to lay into the tree (see [`Recorder::add_aggregates`]).
#[derive(Debug, Clone, Copy)]
pub struct Aggregate<'a> {
    /// Span name.
    pub name: &'a str,
    /// Total cycles.
    pub cycles: u64,
    /// Times the stage ran.
    pub items: u64,
    /// Stages timed inside this one.
    pub children: &'a [Aggregate<'a>],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            items: 1,
            aggregate: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100)
        //   a [10,40)            self 30 - 10 = 20
        //     a1 [15,25)         self 10
        //   b [30,60)  overlaps a on [30,40): union with a covers [10,60)
        //   c [90,120) reaches past root: only [90,100) counts
        let rec = Recorder {
            workload: "t".into(),
            spans: vec![
                span("root", 0, 100, None),
                span("a", 10, 40, Some(0)),
                span("a1", 15, 25, Some(1)),
                span("b", 30, 60, Some(0)),
                span("c", 90, 120, Some(0)),
            ],
            open: Vec::new(),
        };
        assert_eq!(rec.self_cycles(), vec![100 - 50 - 10, 20, 10, 30, 30]);
        let totals = rec.layer_totals();
        assert_eq!(totals["root"].self_cycles, 40);
        assert_eq!(totals["a"].cycles, 30);
    }

    #[test]
    fn aggregates_nest_and_leave_parent_self_time() {
        let mut rec = Recorder::new("t");
        let run = rec.enter("run");
        rec.exit(run, 10);
        // Make the measured span exactly 1000 cycles long.
        rec.spans[0].start = 5_000;
        rec.spans[0].end = 6_000;
        let inner = [Aggregate {
            name: "app_parsing",
            cycles: 100,
            items: 3,
            children: &[],
        }];
        rec.add_aggregates(
            run,
            &[
                Aggregate {
                    name: "packet_filter",
                    cycles: 200,
                    items: 10,
                    children: &[],
                },
                Aggregate {
                    name: "conn_tracking",
                    cycles: 500,
                    items: 8,
                    children: &inner,
                },
            ],
        );
        let own = rec.self_cycles();
        assert_eq!(own[0], 1000 - 700, "unattributed remainder of the run");
        let totals = rec.layer_totals();
        assert_eq!(totals["conn_tracking"].self_cycles, 400);
        assert_eq!(totals["app_parsing"].self_cycles, 100);
        assert!(rec.spans()[1..].iter().all(|s| s.aggregate));
    }

    #[test]
    fn enter_exit_nest_and_json_parses() {
        let mut rec = Recorder::new("w\"x");
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        rec.exit(inner, 3);
        rec.exit(outer, 5);
        assert_eq!(rec.spans()[1].parent, Some(0));
        let json = retina_telemetry::json::parse(&rec.to_json(2.5)).expect("valid JSON");
        assert_eq!(json.get("trace_id").and_then(|j| j.as_str()), Some("w\"x"));
        let spans = json.get("spans").and_then(|j| j.as_arr()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|j| j.as_u64()), Some(0));
        assert_eq!(spans[0].get("items").and_then(|j| j.as_u64()), Some(5));
    }
}
