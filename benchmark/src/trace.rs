//! Spans of the traced run: recorded in memory around the benchmark's
//! calls into each crate's public functions, written out once at exit.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Trace`].
pub type SpanId = u32;

/// One timed call: `name` is the layer-qualified function
/// (`engine.run_into`), `parent` the span that caused it, `id` the
/// batch or request every span of one unit of work shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub id: u64,
}

/// An in-memory span log. Threads record into their own `Trace` built
/// from one shared origin and are merged afterwards.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records one finished span and returns its id for its children.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        id: u64,
    ) -> SpanId {
        let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            id,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Runs `work` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        work: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = work();
        self.record(name, start, Instant::now(), parent, id);
        out
    }

    /// Hangs an already recorded span under `parent`.
    pub fn set_parent(&mut self, span: SpanId, parent: SpanId) {
        self.spans[span as usize].parent = Some(parent);
    }

    /// Appends another thread's spans, rebasing their parent links.
    pub fn absorb(&mut self, other: Trace) {
        debug_assert_eq!(self.origin, other.origin, "traces share one origin");
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|span| Span {
            parent: span.parent.map(|p| p + base),
            ..span
        }));
    }

    /// Total duration per span name, in nanoseconds.
    pub fn total_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0) += span.end_ns - span.start_ns;
        }
        totals
    }

    /// Self time per span name: each span's duration minus the summed
    /// durations of its direct children. (Replayed children run after
    /// their parent, not inside it; their durations still subtract —
    /// that is what a replay is for.)
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, i64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *totals.entry(span.name).or_insert(0) +=
                (span.end_ns - span.start_ns) as i64 - children as i64;
        }
        totals
    }

    /// Writes the spans as one JSON document, one span per line.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        )?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}{}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.id,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut trace = Trace::new(origin);
        let root = trace.record("engine.run_into", at(0), at(100), None, 7);
        trace.record("engine.batch.search", at(100), at(170), Some(root), 7);
        trace.record("index.resolve", at(170), at(190), Some(root), 7);
        let selfs = trace.self_ns_by_name();
        assert_eq!(selfs["engine.run_into"], 10_000);
        assert_eq!(selfs["engine.batch.search"], 70_000);
        assert_eq!(trace.total_ns_by_name()["engine.run_into"], 100_000);
    }

    #[test]
    fn absorbed_spans_keep_pointing_at_their_own_parents() {
        let origin = Instant::now();
        let mut a = Trace::new(origin);
        a.record("a.root", origin, origin, None, 1);
        let mut b = Trace::new(origin);
        let root = b.record("b.root", origin, origin, None, 2);
        b.record("b.child", origin, origin, Some(root), 2);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(
            a.spans()[a.spans()[2].parent.unwrap() as usize].name,
            "b.root"
        );
    }

    #[test]
    fn the_trace_file_is_valid_json() {
        let origin = Instant::now();
        let mut trace = Trace::new(origin);
        let root = trace.record("engine.run_into", origin, origin, None, 0);
        trace.record("engine.batch.search", origin, origin, Some(root), 0);
        let path =
            crate::machine::out_dir().join(format!("trace_test_{}.json", std::process::id()));
        trace.write_json(&path, "count_reads", 42).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }
}
