//! In-memory span recorder for the traced run.
//!
//! A span brackets one call the benchmark makes into a layer's public
//! functions. It records a name, a start and an end (nanoseconds since the
//! recorder's epoch), the span that was open around it and the id of the
//! operation it belongs to. Spans stay in memory until the run ends; a
//! disabled recorder calls the bracketed function and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recorder that records nothing (the untraced variant of an op).
    pub fn off() -> Recorder {
        Recorder::new(false)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<u32> {
        OPEN.with(|s| s.borrow().last().copied())
    }

    /// Runs `f` inside a span whose parent is the innermost open span of
    /// this thread.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let parent = self.current();
        self.span_under(parent, name, op, f)
    }

    /// Runs `f` inside a span with an explicit parent (a span opened on
    /// another thread, e.g. the round that a worker's point belongs to).
    pub fn span_under<T>(
        &self,
        parent: Option<u32>,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|s| s.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list lock: no code panics while holding it")
            .push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                op,
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list lock: no code panics while holding it"),
        )
    }
}

/// Per-name totals of a span list.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Total and self time per span name. A span's self time is its duration
/// minus the part of its interval covered by its children (children on
/// other threads may overlap one another, so their union is taken).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Sum of durations of the spans called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Durations of the spans called `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Renders the self-time table, largest self time first.
pub fn render_self_table(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let t = totals(spans);
    let all_self: u64 = t.values().map(|v| v.self_ns).sum::<u64>().max(1);
    let mut rows: Vec<_> = t.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
    let ops: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.op).collect();
    let mut out = format!("{} spans over {} operations\n", spans.len(), ops.len());
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, v) in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            v.count,
            v.total_ns as f64 / 1e6,
            v.self_ns as f64 / 1e6,
            100.0 * v.self_ns as f64 / all_self as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        let mk = |id, start_ns, end_ns, parent: Option<u32>| Span {
            id,
            name: if parent.is_none() { "root" } else { "child" },
            start_ns,
            end_ns,
            parent,
            op: 0,
        };
        let spans = vec![
            mk(0, 0, 100, None),
            mk(1, 10, 40, Some(0)),
            mk(2, 30, 50, Some(0)),
            mk(3, 90, 120, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 100 - 40 - 10);
        assert_eq!(t["child"].count, 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::off();
        assert_eq!(r.span("x", 0, || 7), 7);
        assert!(r.take().is_empty());
        let r = Recorder::new(true);
        r.span("outer", 1, || r.span("inner", 1, || ()));
        let spans = r.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }
}
