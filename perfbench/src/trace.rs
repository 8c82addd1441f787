//! In-memory spans around the benchmark's own calls into the program.
//!
//! A span is a name, a start and an end (nanoseconds since the tracer
//! was created), the span that caused it, the unit ("run id") it belongs
//! to, and one integer argument (a catalog path id or a registry
//! position). Spans are kept in memory and written out once, when the
//! benchmark ends; a disabled tracer records nothing and reads no clock.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `None` when tracing is off.
pub type SpanId = Option<u64>;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: SpanId,
    pub run: u32,
    pub name: &'static str,
    pub arg: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: std::sync::atomic::AtomicBool,
    run: AtomicU32,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: Default::default(),
            run: AtomicU32::new(0),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Starts recording spans under run id `run`, or stops recording.
    pub fn set(&self, enabled: bool, run: u32) {
        self.enabled.store(enabled, Ordering::Relaxed);
        self.run.store(run, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        arg: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            run: self.run.load(Ordering::Relaxed),
            name,
            arg,
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking worker")
            .push(span);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock poisoned by a panicking worker")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// The spans of run `run` named `name`, in start order.
pub fn named<'a>(spans: &'a [Span], run: u32, name: &str) -> Vec<&'a Span> {
    spans
        .iter()
        .filter(|s| s.run == run && s.name == name)
        .collect()
}

/// Seconds of the interval union of `spans` — wall time during which at
/// least one of them was open.
pub fn covered_secs(spans: &[&Span]) -> f64 {
    let mut intervals: Vec<(u64, u64)> = spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut open: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = open {
        total += e - s;
    }
    total as f64 / 1e9
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"arg\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.run, s.name, s.arg, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: 0,
            parent: None,
            run: 0,
            name: "x",
            arg: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn coverage_merges_overlapping_intervals() {
        let spans = [span(0, 10), span(5, 20), span(30, 40), span(40, 45)];
        let refs: Vec<&Span> = spans.iter().collect();
        assert_eq!(covered_secs(&refs), 35e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nested_spans_link_parents() {
        let tracer = Tracer::default();
        tracer.span("off", None, 0, |id| assert_eq!(id, None));
        tracer.set(true, 7);
        tracer.span("outer", None, 1, |outer| {
            tracer.span("inner", outer, 2, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(spans.iter().all(|s| s.run == 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
