//! In-memory spans for the traced replay.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions (the library has no tracing of its own yet). Every span
//! carries the op it belongs to and its parent; a layer's self time is its
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The op (or replay) the span belongs to.
    pub op: u64,
    /// `layer.stage`, e.g. `basestation.scan`; roots are `op` and `rebuild`.
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Offset from the tracer's origin.
    pub start: Duration,
    /// Offset from the tracer's origin; equals `start` while open.
    pub end: Duration,
}

/// Handle to an open span, closed by [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Records spans of one benchmark process.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, op: u64, name: &'static str) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            op,
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `span`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the replay.
    pub fn exit(&mut self, span: SpanId) {
        assert_eq!(self.open.pop(), Some(span.0), "spans closed out of order");
        self.spans[span.0].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(op, name);
        let out = f();
        self.exit(id);
        out
    }

    /// A position to [`Tracer::rewind`] to.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Drops every span recorded since `mark`, open or closed — used when a
    /// traced op fails part-way.
    pub fn rewind(&mut self, mark: usize) {
        self.spans.truncate(mark);
        self.open.retain(|&i| i < mark);
    }

    /// Every recorded span, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The self time of each span recorded since `mark`, in entry order.
    fn span_self_times(&self, mark: usize) -> Vec<Duration> {
        let spans = &self.spans[mark..];
        let mut own: Vec<Duration> = spans.iter().map(|s| s.end - s.start).collect();
        for span in spans {
            if let Some(parent) = span.parent.filter(|&p| p >= mark) {
                own[parent - mark] = own[parent - mark].saturating_sub(span.end - span.start);
            }
        }
        own
    }

    /// Self time per span name, summed over the spans recorded since `mark`.
    pub fn self_times_since(&self, mark: usize) -> BTreeMap<&'static str, Duration> {
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (span, own) in self.spans[mark..].iter().zip(self.span_self_times(mark)) {
            *out.entry(span.name).or_default() += own;
        }
        out
    }

    /// Writes one JSON line per span — op, id, parent, name, start, end and
    /// self time in microseconds.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let micros = |d: Duration| Json::Num(d.as_nanos() as f64 / 1_000.0);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, own)) in self.spans.iter().zip(self.span_self_times(0)).enumerate() {
            let line = Json::Obj(vec![
                ("op".into(), Json::Num(span.op as f64)),
                ("id".into(), Json::Num(id as f64)),
                (
                    "parent".into(),
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name".into(), Json::Str(span.name.into())),
                ("start_us".into(), micros(span.start)),
                ("end_us".into(), micros(span.end)),
                ("self_us".into(), micros(own)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::default();
        let mark = tracer.mark();
        tracer.span(0, "op", || {});
        let root = tracer.enter(1, "op");
        let child = tracer.enter(1, "basestation.scan");
        std::thread::sleep(Duration::from_millis(2));
        tracer.exit(child);
        tracer.exit(root);
        let times = tracer.self_times_since(mark);
        assert!(times["basestation.scan"] >= Duration::from_millis(2));
        assert!(times["op"] < times["basestation.scan"]);
        assert_eq!(tracer.spans()[2].parent, Some(1));
    }

    #[test]
    fn rewind_drops_a_failed_op() {
        let mut tracer = Tracer::default();
        tracer.span(0, "op", || {});
        let mark = tracer.mark();
        let _root = tracer.enter(1, "op");
        let _child = tracer.enter(1, "wire.decode");
        tracer.rewind(mark);
        assert_eq!(tracer.spans().len(), 1);
        tracer.span(2, "op", || {});
        assert_eq!(tracer.spans()[1].parent, None);
    }
}
