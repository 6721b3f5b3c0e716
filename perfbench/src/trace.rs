//! In-memory span recording for the traced run.
//!
//! A span has a name, a start, an end, the span that caused it, the op
//! it belongs to and the worker thread that ran it. Spans are kept in
//! memory and analysed when the run ends; with tracing off,
//! [`Tracer::span`] only calls its closure.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Op id of spans that belong to no op (set-up, engine maps, the
/// start-up probe self-check).
pub const NO_OP: u64 = u64::MAX;

/// One closed span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, in opening order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `gatesim.advance`.
    pub name: &'static str,
    /// The op this span works for, or [`NO_OP`].
    pub op: u64,
    /// Worker thread index (see [`worker_id`]).
    pub worker: usize,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
}

impl Span {
    /// Duration, seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// A phase clock that optionally records spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let tracer = Tracer::new(false);
    let r = f();
    (r, tracer.now())
}

impl Tracer {
    /// A tracer whose clock starts now; `enabled` turns span recording on.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            #[allow(clippy::disallowed_methods)]
            // psa-lint: allow(wallclock-in-lib): the benchmark is the harness that injects host time; this is its one clock.
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id (`None` when tracing is off) so it can open child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let result = f(Some(id));
        let end = self.now();
        let span = Span {
            id,
            parent,
            name,
            op,
            worker: worker_id(),
            start,
            end,
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
        result
    }

    /// Every recorded span, sorted by id.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span buffer poisoned");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

thread_local! {
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A small stable index for the calling thread, assigned on first use.
pub fn worker_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    WORKER.with(|w| {
        let id = w
            .get()
            .unwrap_or_else(|| NEXT.fetch_add(1, Ordering::Relaxed));
        w.set(Some(id));
        id
    })
}

/// Self time of every span (same order as `spans`): its duration minus
/// the union of its children's intervals, so children that overlap on
/// different workers are not counted twice.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<usize, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            op: 0,
            worker: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 4.0),
            span(2, Some(0), 3.0, 6.0),
            span(3, Some(0), 8.0, 9.0),
            span(4, Some(1), 2.0, 3.0),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 4.0).abs() < 1e-12);
        assert!((t[1] - 2.0).abs() < 1e-12);
        assert!((t[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 0, None, |id| id), None);
        assert!(tracer.into_spans().is_empty());
        let tracer = Tracer::new(true);
        let outer = tracer.span("a", 1, None, |id| tracer.span("b", 1, id, |_| id));
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, outer);
    }
}
