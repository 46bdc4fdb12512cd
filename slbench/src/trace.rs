//! In-memory spans recorded by the benchmark around calls into each
//! crate's public functions.
//!
//! A span is named `<layer>.<what>`; the layer is the crate the wrapped
//! call belongs to (`ir`, `sim`, `workload`, `sample`, `core`, `bench`,
//! `serve`). Spans nest per thread through a thread-local stack, so a
//! span's parent is the innermost span open on the same thread. Nothing
//! is written while the benchmark measures: [`Tracer::write_jsonl`] dumps
//! the spans at the end, and [`Tracer::self_ns_by_layer`] rolls them up
//! into per-layer self time (duration minus the time covered by child
//! spans).
//!
//! A disabled tracer records nothing and costs one branch per span.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Unique id within the run.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Small per-thread number (first span recorded on a thread gets the
    /// next free one).
    pub tid: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

impl SpanRec {
    /// The layer part of the span name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<Option<u64>> = const { Cell::new(None) };
}

fn thread_tid() -> u64 {
    TID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        SpanGuard {
            open: Some(Open {
                tracer: self,
                id,
                parent,
                name,
                start: Instant::now(),
            }),
        }
    }

    /// Runs `f` under a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// A copy of every finished span.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Durations (ns) of every finished span called `name`, in finish
    /// order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect()
    }

    /// Summed duration (ns) of every finished span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations_ns(name).iter().sum()
    }

    /// Self time per layer: each span's duration minus the summed
    /// duration of its direct children, added up by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let own = s
                .dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.layer()).or_default() += own;
        }
        out
    }

    /// Writes every span as one JSON object per line, in start order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"tid\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.id,
                s.name,
                s.layer(),
                s.tid,
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    open: Option<Open<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == open.id) {
                s.truncate(pos);
            }
        });
        let rec = SpanRec {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tid: thread_tid(),
            start_ns: open.start.duration_since(open.tracer.origin).as_nanos() as u64,
            dur_ns: end.duration_since(open.start).as_nanos() as u64,
        };
        if let Ok(mut spans) = open.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("bench.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.time("sim.inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "sim.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "bench.outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let rollup = t.self_ns_by_layer();
        assert_eq!(rollup["sim"], inner.dur_ns);
        assert_eq!(rollup["bench"], outer.dur_ns - inner.dur_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(false);
        t.time("sim.x", || ());
        assert!(t.spans().is_empty());
        assert!(t.self_ns_by_layer().is_empty());
    }
}
