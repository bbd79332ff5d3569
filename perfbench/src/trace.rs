//! Spans around the benchmark's calls into the govscan layers.
//!
//! A span has a name (`<layer>.<what>`), a start, an end and the span
//! that caused it. Spans live in memory and are summarised when the run
//! ends. A disabled tracer records nothing and costs one branch per
//! call, which is what the untraced runs use.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u32;

/// One finished span, times in nanoseconds from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The span that caused it, if any.
    pub parent: Option<SpanId>,
    /// `<layer>.<what>`.
    pub name: Cow<'static, str>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// The layer: everything before the first `.` of the name.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<SpanId> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Run `f` inside a span whose parent is this thread's innermost
    /// open span.
    pub fn span<R>(&self, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = self.current();
        self.span_under(parent, name, f)
    }

    /// Run `f` inside a span with an explicit parent: work handed to a
    /// pool thread names the span that dispatched it.
    pub fn span_under<R>(
        &self,
        parent: Option<SpanId>,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = self.now();
        let out = f();
        let end = self.now();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans
            .lock()
            .expect("a traced thread panicked while recording")
            .push(Span {
                id,
                parent,
                name: name.into(),
                start,
                end,
            });
        out
    }

    /// Every finished span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a traced thread panicked while recording")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children running in parallel on pool
/// threads overlap each other, so their union is subtracted, clipped to
/// the parent's interval.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.to_string()).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += selfs[&s.id];
    }
    out
}

/// Per-layer totals: `(span count, self ns)`.
pub fn by_layer(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.layer().to_owned()).or_default();
        e.0 += 1;
        e.1 += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: Cow::Borrowed(name),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // repro.exp [0,100] > analysis.index [10,40] > store.open [20,30]
        let spans = [
            span(1, None, "repro.exp", 0, 100),
            span(2, Some(1), "analysis.index", 10, 40),
            span(3, Some(2), "store.open", 20, 30),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 70);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 10);
        // Self times partition the root's wall exactly.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn parallel_children_subtract_their_union_once() {
        // Two producers on pool threads overlap inside the pipeline span,
        // and one runs past the parent's end: only [10,90] is covered.
        let spans = [
            span(1, None, "exec.pipeline", 0, 90),
            span(2, Some(1), "worldgen.realize", 10, 60),
            span(3, Some(1), "worldgen.realize", 30, 95),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 10);
        assert_eq!(selfs[&2], 50);
        assert_eq!(selfs[&3], 65);
    }

    #[test]
    fn aggregates_by_name_and_layer() {
        let spans = [
            span(1, None, "store.encode", 0, 10),
            span(2, None, "store.encode", 20, 25),
            span(3, None, "worldgen.plan", 30, 40),
            span(4, Some(3), "worldgen.realize", 32, 36),
        ];
        let names = by_name(&spans);
        assert_eq!(names["store.encode"], (2, 15, 15));
        assert_eq!(names["worldgen.plan"], (1, 10, 6));
        let layers = by_layer(&spans);
        assert_eq!(layers["store"], (2, 15));
        assert_eq!(layers["worldgen"], (2, 10));
    }

    #[test]
    fn tracer_records_parents_across_threads() {
        let t = Tracer::new(true);
        t.span("repro.outer", || {
            let parent = t.current();
            assert!(parent.is_some());
            std::thread::scope(|s| {
                s.spawn(|| t.span_under(parent, "worldgen.inner", || ()));
            });
            t.span("store.nested", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "repro.outer").unwrap();
        assert_eq!(outer.parent, None);
        for s in spans.iter().filter(|s| s.id != outer.id) {
            assert_eq!(s.parent, Some(outer.id), "{}", s.name);
        }
        assert!(t.current().is_none(), "stack unwound");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("store.encode", || 7), 7);
        assert!(t.spans().is_empty());
        assert!(t.current().is_none());
    }
}
