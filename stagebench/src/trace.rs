//! In-memory span tracing and the reductions behind the per-layer table.
//!
//! Each thread owns a [`Tracer`]; a span is opened before a call into a
//! library layer and closed after it, so spans on one thread nest properly.
//! A span's parent is the span open on the same thread when it began. The
//! request id is the arrival index on the decision path and the epoch on the
//! publish path.
//!
//! [`reduce`] turns one episode's spans into per-name rows:
//!
//! * **busy** — summed span durations;
//! * **self** — duration minus the part of the span's interval covered by
//!   its children. Children are the same-thread spans opened inside it and,
//!   for the main thread's *wait* spans, every worker span overlapping the
//!   wait (what the main thread was waiting on). Overlapping children count
//!   once;
//! * **attributed** — an exclusive partition of the main thread's wall.
//!   Each instant goes to the innermost open main-thread span; inside a wait
//!   span it goes instead to the innermost open span of each busy worker,
//!   split evenly when several are busy. Instants with no open main-thread
//!   span are the `residual`, so attributed rows plus residual equal wall.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name; the layer is the part before the first `.`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start: u64,
    /// End, nanoseconds since the run's origin.
    pub end: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<u32>,
    /// Arrival index or epoch this span served.
    pub request: u64,
}

/// Handle of an open span; inert when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(u32);

const INERT: u32 = u32::MAX;

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder timing against `origin`; records nothing unless `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(INERT);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        Open(index)
    }

    /// Closes the most recently opened span.
    pub fn end(&mut self, open: Open) {
        if open.0 == INERT {
            return;
        }
        let end = self.now();
        debug_assert_eq!(self.open.last(), Some(&open.0), "spans close in LIFO order");
        self.open.pop();
        self.spans[open.0 as usize].end = end;
    }

    /// Takes the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// The layer a span name belongs to.
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Aggregates of one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, ns.
    pub busy_ns: f64,
    /// Summed self times, ns.
    pub self_ns: f64,
    /// Share of the main thread's wall attributed to this name, ns.
    pub attributed_ns: f64,
    /// Individual durations, ns.
    pub durations: Vec<f64>,
}

/// Per-name rows of one or more episodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reduction {
    /// Rows keyed by span name.
    pub rows: BTreeMap<&'static str, Row>,
    /// Main-thread wall covered by no span, ns.
    pub residual_ns: f64,
    /// Main-thread wall, ns.
    pub wall_ns: f64,
}

impl Reduction {
    /// Adds another reduction's rows and wall.
    pub fn merge(&mut self, other: Reduction) {
        for (name, row) in other.rows {
            let into = self.rows.entry(name).or_default();
            into.count += row.count;
            into.busy_ns += row.busy_ns;
            into.self_ns += row.self_ns;
            into.attributed_ns += row.attributed_ns;
            into.durations.extend(row.durations);
        }
        self.residual_ns += other.residual_ns;
        self.wall_ns += other.wall_ns;
    }

    /// Sum of one statistic over the rows whose name satisfies `pick`.
    pub fn sum(&self, pick: impl Fn(&str) -> bool, stat: impl Fn(&Row) -> f64) -> f64 {
        self.rows
            .iter()
            .filter(|(name, _)| pick(name))
            .map(|(_, row)| stat(row))
            .sum::<f64>()
            + 0.0 // an empty f64 sum is -0.0
    }

    /// Wall attributed to any span, ns.
    pub fn attributed_ns(&self) -> f64 {
        self.sum(|_| true, |row| row.attributed_ns)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
#[must_use]
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Top-level spans of one worker overlapping `[lo, hi)`. A thread's
/// top-level spans are disjoint and in time order, so their ends ascend.
fn overlapping(top: &[(u64, u64)], lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
    let first = top.partition_point(|&(_, e)| e <= lo);
    top[first..]
        .iter()
        .copied()
        .take_while(move |&(s, _)| s < hi)
}

/// Reduces one episode: `threads[0]` is the main thread, the rest are
/// workers; `wall` is the main thread's timed interval; spans named in
/// `waits` are main-thread waits on the workers.
#[must_use]
pub fn reduce(threads: &[Vec<Span>], wall: (u64, u64), waits: &[&str]) -> Reduction {
    let mut out = Reduction {
        wall_ns: (wall.1 - wall.0) as f64,
        ..Reduction::default()
    };
    let worker_top: Vec<Vec<(u64, u64)>> = threads
        .iter()
        .skip(1)
        .map(|spans| {
            spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| (s.start, s.end))
                .collect()
        })
        .collect();

    // Busy and self time per span.
    for (thread, spans) in threads.iter().enumerate() {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start, span.end));
            }
        }
        for (span, kids) in spans.iter().zip(children.iter_mut()) {
            if thread == 0 && waits.contains(&span.name) {
                for top in &worker_top {
                    kids.extend(overlapping(top, span.start, span.end));
                }
            }
            let duration = span.end - span.start;
            let row = out.rows.entry(span.name).or_default();
            row.count += 1;
            row.busy_ns += duration as f64;
            row.self_ns += (duration - covered(span.start, span.end, kids)) as f64;
            row.durations.push(duration as f64);
        }
    }

    // Exclusive attribution of the main thread's wall by a sweep over every
    // span boundary. Closes sort before opens at equal times.
    let depth: Vec<Vec<u32>> = threads
        .iter()
        .map(|spans| {
            let mut depth = Vec::with_capacity(spans.len());
            for span in spans {
                let d = span.parent.map_or(0, |p| depth[p as usize] + 1);
                depth.push(d);
            }
            depth
        })
        .collect();
    let mut events: Vec<(u64, bool, usize, usize)> = Vec::new();
    for (thread, spans) in threads.iter().enumerate() {
        for (index, span) in spans.iter().enumerate() {
            events.push((span.start, true, thread, index));
            events.push((span.end, false, thread, index));
        }
    }
    events.sort_unstable();
    let mut active: Vec<Vec<usize>> = vec![Vec::new(); threads.len()];
    let innermost =
        |active: &[usize], thread: usize| active.iter().copied().max_by_key(|&i| depth[thread][i]);
    let attribute = |lo: u64, hi: u64, active: &[Vec<usize>], out: &mut Reduction| {
        let (lo, hi) = (lo.max(wall.0), hi.min(wall.1));
        if hi <= lo {
            return;
        }
        let dt = (hi - lo) as f64;
        let Some(main) = innermost(&active[0], 0) else {
            out.residual_ns += dt;
            return;
        };
        let main_span = &threads[0][main];
        if waits.contains(&main_span.name) {
            let busy: Vec<&'static str> = (1..threads.len())
                .filter_map(|t| innermost(&active[t], t).map(|i| threads[t][i].name))
                .collect();
            if !busy.is_empty() {
                let share = dt / busy.len() as f64;
                for name in busy {
                    out.rows.entry(name).or_default().attributed_ns += share;
                }
                return;
            }
        }
        out.rows.entry(main_span.name).or_default().attributed_ns += dt;
    };
    let mut cursor = wall.0;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        if t > cursor {
            attribute(cursor, t, &active, &mut out);
            cursor = t;
        }
        while i < events.len() && events[i].0 == t {
            let (_, opens, thread, index) = events[i];
            if opens {
                active[thread].push(index);
            } else {
                active[thread].retain(|&a| a != index);
            }
            i += 1;
        }
    }
    if wall.1 > cursor {
        attribute(cursor, wall.1, &active, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn union_counts_overlaps_once_and_clips() {
        assert_eq!(covered(0, 10, &mut [(1, 4), (3, 6)]), 5);
        assert_eq!(covered(0, 10, &mut [(2, 3), (1, 8)]), 7);
        assert_eq!(covered(5, 10, &mut [(0, 7), (9, 20)]), 3);
        assert_eq!(covered(0, 10, &mut []), 0);
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children() {
        // main: root [0,100) ⊃ a [10,30) ⊃ a.inner [12,20); wait [40,90).
        // worker: w1 [35,50) ⊃ w1.inner [36,49); w2 [45,60); w3 [80,95).
        let main = vec![
            span("x.root", 0, 100, None),
            span("x.a", 10, 30, Some(0)),
            span("x.inner", 12, 20, Some(1)),
            span("x.wait", 40, 90, Some(0)),
        ];
        let worker_a = vec![
            span("w.one", 35, 50, None),
            span("w.inner", 36, 49, Some(0)),
        ];
        let worker_b = vec![span("w.two", 45, 60, None), span("w.three", 80, 95, None)];
        let r = reduce(&[main, worker_a, worker_b], (0, 100), &["x.wait"]);
        // The grandchild lies inside its parent: root loses 20 + 50 only.
        assert_eq!(r.rows["x.root"].self_ns, 30.0);
        assert_eq!(r.rows["x.a"].self_ns, 12.0);
        assert_eq!(r.rows["x.inner"].self_ns, 8.0);
        // The wait is covered by [40,60) ∪ [80,90) across two workers.
        assert_eq!(r.rows["x.wait"].self_ns, 20.0);
        assert_eq!(r.rows["w.one"].self_ns, 2.0);
        assert_eq!(r.rows["w.two"].busy_ns, 15.0);
    }

    #[test]
    fn attribution_partitions_wall() {
        let main = vec![
            span("x.root", 5, 95, None),
            span("x.a", 10, 30, Some(0)),
            span("x.wait", 40, 90, Some(0)),
        ];
        let worker_a = vec![
            span("w.one", 35, 50, None),
            span("w.inner", 36, 49, Some(0)),
        ];
        let worker_b = vec![span("w.two", 45, 60, None), span("w.three", 80, 95, None)];
        let r = reduce(&[main, worker_a, worker_b], (0, 100), &["x.wait"]);
        let get = |n: &str| r.rows.get(n).map_or(0.0, |row| row.attributed_ns);
        // [0,5) and [95,100) have no main-thread span.
        assert_eq!(r.residual_ns, 10.0);
        // root: [5,10) + [30,40) + [90,95).
        assert_eq!(get("x.root"), 20.0);
        assert_eq!(get("x.a"), 20.0);
        // Inside the wait: [40,45) w.inner alone, [45,49) split with w.two,
        // [49,50) w.one split with w.two, [50,60) w.two alone, [80,90) w.three.
        assert_eq!(get("w.inner"), 5.0 + 2.0);
        assert_eq!(get("w.one"), 0.5);
        assert_eq!(get("w.two"), 2.0 + 0.5 + 10.0);
        assert_eq!(get("w.three"), 10.0);
        // [60,80): no worker busy, the wait itself.
        assert_eq!(get("x.wait"), 20.0);
        let total = r.attributed_ns() + r.residual_ns;
        assert!((total - r.wall_ns).abs() < 1e-9, "{total} vs {}", r.wall_ns);
    }

    #[test]
    fn reductions_merge_rows_and_wall() {
        let one = reduce(&[vec![span("x.a", 0, 4, None)]], (0, 10), &[]);
        let mut sum = one.clone();
        sum.merge(one);
        assert_eq!(sum.rows["x.a"].count, 2);
        assert_eq!(sum.rows["x.a"].attributed_ns, 8.0);
        assert_eq!(sum.residual_ns, 12.0);
        assert_eq!(sum.wall_ns, 20.0);
    }

    #[test]
    fn tracer_links_parents_and_is_inert_when_off() {
        let origin = Instant::now();
        let mut on = Tracer::new(true, origin);
        let outer = on.begin("x.outer", 7);
        let inner = on.begin("x.inner", 7);
        on.end(inner);
        on.end(outer);
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let mut off = Tracer::new(false, origin);
        let open = off.begin("x.outer", 0);
        off.end(open);
        assert!(off.take().is_empty());
        assert_eq!(layer_of("pool.decide"), "pool");
    }
}
