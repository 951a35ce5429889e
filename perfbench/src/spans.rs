//! Outside-in spans: the benchmark wraps each call into a crate's public
//! functions in a named span. Spans are kept in memory and summarized once,
//! at exit; nothing is written while the workload runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span: name, parent index and its interval in seconds since
/// the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// In-memory span recorder for one thread of control.
pub struct Spans {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span, and returns its result with the span's duration in seconds.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let parent = self.open.borrow().last().copied();
        let start = self.origin.elapsed().as_secs_f64();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent,
                start,
                end: start,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.borrow_mut()[idx].end = end;
        (out, end - start)
    }

    /// Durations in seconds of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Per-name `(calls, total seconds, self seconds)`, sorted by name.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.borrow();
        let selfs = self_times(&spans);
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += own;
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children are merged as a union, so
/// overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.end - s.start - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("fit", None, 0.0, 10.0),
            span("pretrain", Some(0), 1.0, 4.0),
            span("matmul", Some(1), 1.5, 2.5),
            span("init", Some(0), 5.0, 7.0),
        ];
        let own = self_times(&spans);
        // fit: 10 − (3 + 2); grandchildren are not subtracted from fit.
        assert_eq!(own, vec![5.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn overlapping_children_are_merged() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 5.0),
            span("b", Some(0), 3.0, 6.0),
            span("c", Some(0), 4.0, 4.5),
            // Runs past its parent's end: only the covered part counts.
            span("d", Some(0), 9.0, 12.0),
        ];
        assert_eq!(self_times(&spans)[0], 10.0 - 5.0 - 1.0);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let spans = Spans::new();
        let ((), outer) = spans.time("outer", || {
            spans.time("inner", || std::hint::black_box((0..1000).sum::<u64>()));
            spans.time("inner", || ());
        });
        assert_eq!(spans.durations("inner").len(), 2);
        let summary = spans.summary();
        let (calls, total, own) = summary["outer"];
        assert_eq!(calls, 1);
        assert_eq!(total, outer);
        assert!(own <= total && own >= 0.0);
        let recorded = spans.spans.borrow();
        assert_eq!(recorded[1].parent, Some(0));
        assert_eq!(recorded[2].parent, Some(0));
    }
}
