//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! (compile phases, `execute`, `run_plan_call`, kernel calls,
//! `infer_with_stats`, `decode_step`→`wait`). Spans keep a name, start,
//! end and parent; the spans of one request share a request id. They
//! stay in memory until [`Trace::write`] at exit. With tracing off every
//! method is a no-op, so the untraced run pays one branch per call.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique, non-zero.
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Request (or execution) the span belongs to, 0 for none.
    pub req: u64,
    pub name: &'static str,
    /// Which graph, call, tile or shard the span is about (see the run
    /// record for the index tables), 0 when unused.
    pub key: u32,
    /// Nanoseconds since the trace started.
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A handle to the run's recorder (cheap to clone across threads).
#[derive(Clone, Default)]
pub struct Trace(Option<Arc<Tracer>>);

impl Trace {
    /// A recorder when `enabled`, otherwise the no-op handle.
    pub fn new(enabled: bool) -> Trace {
        Trace(enabled.then(|| {
            Arc::new(Tracer {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })
        }))
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// A fresh id for a span or request; 0 when tracing is off. Take a
    /// parent's id before recording its children.
    pub fn id(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |t| t.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Record the interval `start..end` under a pre-allocated `id`
    /// (0 allocates one). Returns the span id, 0 when tracing is off.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &self,
        id: u64,
        parent: u64,
        req: u64,
        name: &'static str,
        key: u32,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let Some(t) = &self.0 else { return 0 };
        let id = if id == 0 { self.id() } else { id };
        let ns = |at: Instant| at.saturating_duration_since(t.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            req,
            name,
            key,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        t.spans.lock().expect("trace lock poisoned").push(span);
        id
    }

    /// [`Trace::record_as`] with a fresh id.
    pub fn record(
        &self,
        parent: u64,
        req: u64,
        name: &'static str,
        key: u32,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.record_as(0, parent, req, name, key, start, end)
    }

    /// Spans recorded so far (empty when tracing is off).
    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |t| {
            t.spans.lock().expect("trace lock poisoned").clone()
        })
    }

    /// Write every span as one JSON object per line; returns the count.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":{},\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.req,
                crate::json::quote(s.name),
                s.key,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new(false);
        let now = Instant::now();
        assert_eq!(t.id(), 0);
        assert_eq!(t.record(0, 0, "x", 0, now, now), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_point_at_a_reserved_parent() {
        let t = Trace::new(true);
        let req = t.id();
        let parent = t.id();
        let t0 = Instant::now();
        let child = t.record(parent, req, "child", 3, t0, Instant::now());
        t.record_as(parent, 0, req, "parent", 0, t0, Instant::now());
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, child);
        assert_eq!(spans[0].parent, parent);
        assert_eq!(spans[1].id, parent);
        assert!(spans.iter().all(|s| s.req == req && s.end_ns >= s.start_ns));
    }
}
