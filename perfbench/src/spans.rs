//! In-memory spans for the traced runs.
//!
//! A span is one timed call into a layer: its name, a tag naming the phase
//! it ran in (`static`, `dynamic_gs`, ...), start and end on one monotonic
//! clock, the span that caused it and the request it served. Spans are kept
//! in memory while the workload runs and written out as JSON lines when it
//! ends. A span's self time is its duration minus the part of it that its
//! child spans cover, so a parent with children on several threads is not
//! charged for work they did in parallel.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within one [`Tracer`] (never 0).
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Layer call, such as `fastpath.inverse`.
    pub name: &'static str,
    /// Phase the call belongs to, such as `static`.
    pub tag: &'static str,
    /// Request (or batch) the call served.
    pub request: u64,
    /// Small per-thread number, for reading the spans.
    pub thread: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started but not yet ended.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    tag: &'static str,
    request: u64,
    start_ns: u64,
}

impl Open {
    /// The id children of this span should name as their parent.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that reads no clock and records nothing, so the same code
    /// can run with spans off to measure what they cost.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span.
    pub fn open(&self, name: &'static str, tag: &'static str, parent: u32, request: u64) -> Open {
        let (id, start_ns) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        Open {
            id,
            parent,
            name,
            tag,
            request,
            start_ns,
        }
    }

    /// Ends a span and returns it without recording it, for callers that
    /// batch spans locally and hand them over with [`Tracer::extend`].
    pub fn finish(&self, open: Open) -> Span {
        let (thread, end_ns) = if self.enabled {
            (thread_number(), self.now_ns())
        } else {
            (0, 0)
        };
        Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tag: open.tag,
            request: open.request,
            thread,
            start_ns: open.start_ns,
            end_ns,
        }
    }

    /// A span over an interval measured elsewhere on this tracer's clock,
    /// not yet recorded.
    pub fn span_at(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: u32,
        request: u64,
        (start_ns, end_ns): (u64, u64),
    ) -> Span {
        Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            tag,
            request,
            thread: thread_number(),
            start_ns,
            end_ns,
        }
    }

    /// Ends a span and records it.
    pub fn close(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let span = self.finish(open);
        self.spans
            .lock()
            .expect("a thread panicked while recording spans")
            .push(span);
    }

    /// Records spans collected elsewhere.
    pub fn extend(&self, spans: Vec<Span>) {
        if !self.enabled {
            return;
        }
        self.spans
            .lock()
            .expect("a thread panicked while recording spans")
            .extend(spans);
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a thread panicked while recording spans"),
        )
    }
}

/// A small number naming the calling thread, stable for its lifetime.
fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static NUMBER: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|n| *n)
}

/// Self time of every span, in nanoseconds, by span id.
fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map_or(0, |kids| covered_ns(kids, span.start_ns, span.end_ns));
            (span.id, span.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(cursor);
        let hi = hi.min(end);
        if hi > lo {
            total += hi - lo;
            cursor = hi;
        }
    }
    total
}

/// Per `(name, tag)`: summed self time in seconds and the call count.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), (f64, u64)> {
    let own = self_times(spans);
    let mut totals = BTreeMap::new();
    for span in spans {
        let entry = totals.entry((span.name, span.tag)).or_insert((0.0, 0));
        entry.0 += own[&span.id] as f64 * 1e-9;
        entry.1 += 1;
    }
    totals
}

/// Prints each layer's self time, one line per `(name, tag)`.
fn print_self_times(workload: &str, spans: &[Span]) {
    println!("# {workload}: self time per layer (span minus its children)");
    for ((name, tag), (secs, calls)) in layer_totals(spans) {
        println!("#   {name:<24} {tag:<12} {secs:>12.6} s  {calls:>9} calls");
    }
}

/// Prints each layer's self time and writes the spans to
/// `spans-<workload>-<seed>.jsonl` in [`crate::out_dir`].
pub fn publish(workload: &str, seed: u64, spans: &[Span]) {
    print_self_times(workload, spans);
    let path = crate::out_dir().join(format!("spans-{workload}-{seed}.jsonl"));
    match write_jsonl(&path, spans) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
}

/// Writes spans as JSON lines, one object per span, with its self time.
fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 160);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"request\":{},\
             \"thread\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.name, s.tag, s.request, s.thread, s.start_ns, s.end_ns, own[&s.id]
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            tag: "",
            request: 0,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children on different threads cover 10..70 of
        // the parent's 0..100.
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)];
        let own = self_times(&spans);
        assert_eq!(own[&1], 40);
        assert_eq!(own[&2], 40);
        assert_eq!(own[&3], 40);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let open = tracer.open("x", "", 0, 0);
        let span = tracer.finish(open);
        tracer.close(tracer.open("y", "", open.id(), 0));
        tracer.extend(vec![span]);
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut kids = vec![(90, 150), (0, 5)];
        assert_eq!(covered_ns(&mut kids, 10, 100), 10);
    }
}
