//! The harness's in-memory span recorder.
//!
//! End-to-end numbers come from passes with no recorder. One extra
//! pass per workload wraps each call into a layer in a span (`name`,
//! `start_ns`, `end_ns`, `parent`); spans stay in memory and are
//! written — as a wall-clock `.pftrace` — when the run ends. A layer's
//! self time is its span minus the part of it its child spans cover.

use ebrc_trace::TraceWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`spec.run.mc`, `cache.get`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Records properly nested spans on the calling thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`; `f` gets the recorder back
    /// to open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Wall time from the first span's start to the last span's end.
    pub fn extent_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        end - start
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its own
/// interval that its direct children cover. Children are clipped to
/// the parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time (ns) and call count per span name.
pub struct SelfTotals(BTreeMap<&'static str, (u64, usize)>);

impl SelfTotals {
    /// Sums the self times of `spans` by name.
    pub fn of(spans: &[Span]) -> Self {
        let mut totals: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (s, ns) in spans.iter().zip(self_times(spans)) {
            let entry = totals.entry(s.name).or_default();
            entry.0 += ns;
            entry.1 += 1;
        }
        Self(totals)
    }

    /// Total self seconds of the spans called `name`; 0 if none.
    pub fn secs(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1e9)
    }

    /// Mean self seconds per span called `name`; 0 if none.
    pub fn secs_each(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |(ns, calls)| *ns as f64 / 1e9 / *calls as f64)
    }
}

/// Renders the spans as one Perfetto track of nested wall-clock
/// slices. Spans must be properly nested and in start order, as a
/// [`Recorder`] produces them.
pub fn to_pftrace(workload: &str, spans: &[Span]) -> Vec<u8> {
    let mut w = TraceWriter::new();
    let track = w.add_track(&format!("bench/{workload}"), None);
    let mut open: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        while open.last().copied() != s.parent {
            let done = open.pop().expect("a span's parent opens before it");
            w.slice_end(track, spans[done].end_ns);
        }
        w.slice_begin(track, s.start_ns, s.name);
        open.push(i);
    }
    while let Some(done) = open.pop() {
        w.slice_end(track, spans[done].end_ns);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebrc_trace::read_trace;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        // Grandchildren are the child's business, not the root's.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let totals = SelfTotals::of(&spans);
        assert_eq!(totals.0["a"], (20, 1));
        assert_eq!(totals.0.len(), 4);
        assert_eq!(totals.secs("root"), 50e-9);
        assert_eq!(totals.secs_each("missing"), 0.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = [
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 130, 170, Some(0)),       // overlaps x by 20
            span("z", 140, 145, Some(0)),       // inside both
            span("late", 190, 260, Some(0)),    // runs past the parent
            span("outside", 300, 400, Some(0)), // not in the parent at all
        ];
        // Covered: [110, 170) ∪ [190, 200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_exports_a_valid_trace() {
        let mut rec = Recorder::new();
        let out = rec.span("outer", |rec| {
            rec.span("first", |_| std::hint::black_box(1))
                + rec.span("second", |rec| rec.span("leaf", |_| 2))
        });
        assert_eq!(out, 3);
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("first", Some(0)),
                ("second", Some(0)),
                ("leaf", Some(2))
            ]
        );
        assert!(spans
            .iter()
            .all(|s| s.start_ns <= s.end_ns && s.end_ns <= spans[0].end_ns));
        assert_eq!(rec.extent_ns(), spans[0].end_ns - spans[0].start_ns);
        let selfs = self_times(spans);
        assert_eq!(
            selfs[0],
            (spans[0].end_ns - spans[0].start_ns)
                - (spans[1].end_ns - spans[1].start_ns)
                - (spans[2].end_ns - spans[2].start_ns)
        );

        let summary = read_trace(&to_pftrace("unit", spans)).expect("own trace validates");
        assert_eq!(summary.tracks, 1);
        assert_eq!(summary.slice_begins, 4);
        assert_eq!(summary.slice_ends, 4);
    }
}
