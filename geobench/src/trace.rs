//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each layer
//! (name, start, end, parent, and how many calls the span covers), kept in
//! memory and written out once at the end as a Chrome trace. A disabled
//! tracer records nothing: untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Offsets from the tracer's epoch.
    pub start: Duration,
    pub end: Duration,
    /// Layer calls this span covers (a batch of tiny calls is one span).
    pub calls: u64,
    /// Recording thread, as an index for the trace viewer.
    pub tid: u64,
}

/// An open span; close it with [`Tracer::close`].
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    started: Instant,
}

impl Open {
    /// This span's id, to parent child spans under it (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span log.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span under `parent` (0 = root).
    pub fn open(&self, name: &'static str, parent: u64) -> Open {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            name,
            started: Instant::now(),
        }
    }

    /// Close a span that covered `calls` layer calls; returns its duration.
    pub fn close(&self, open: Open, calls: u64, tid: u64) -> Duration {
        let took = open.started.elapsed();
        if self.on {
            let start = open.started.saturating_duration_since(self.epoch);
            self.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start,
                end: start + took,
                calls,
                tid,
            });
        }
        took
    }

    /// Record an already-timed span (e.g. one crawl round measured between
    /// two progress callbacks).
    pub fn record(&self, name: &'static str, parent: u64, started: Instant, ended: Instant) {
        if !self.on {
            return;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = started.saturating_duration_since(self.epoch);
        let end = ended.saturating_duration_since(self.epoch);
        self.push(Span {
            id,
            parent,
            name,
            start,
            end,
            calls: 1,
            tid: 0,
        });
    }

    /// Time one call into a layer as its own span.
    pub fn call<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, parent);
        let out = f();
        self.close(open, 1, 0);
        out
    }

    /// Time `calls` calls made by `f` as one span (for calls too short to
    /// time one by one).
    pub fn batch<T>(
        &self,
        name: &'static str,
        parent: u64,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent);
        let out = f();
        self.close(open, calls, 0);
        out
    }

    /// Append spans recorded elsewhere (client threads keep their own).
    pub fn extend(&self, spans: Vec<Span>) {
        if self.on {
            self.spans.lock().expect("span log lock").extend(spans);
        }
    }

    /// A fresh span id for spans built by hand on another thread.
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Offset of `t` from the epoch.
    pub fn offset(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log lock").push(span);
    }

    /// Per span name: (total calls, total time).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, Duration)> {
        let mut out: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
        for s in self.spans.lock().expect("span log lock").iter() {
            let e = out.entry(s.name).or_default();
            e.0 += s.calls;
            e.1 += s.end - s.start;
        }
        out
    }

    /// Mean time per call of spans named `name`, in the given unit
    /// (`1e3` for ms, `1e6` for µs), and the call count. `(0, 0)` if the
    /// workload made no such call.
    pub fn per_call(&self, name: &str, per_second: f64) -> (f64, u64) {
        match self.totals().get(name) {
            Some(&(calls, total)) if calls > 0 => {
                (total.as_secs_f64() * per_second / calls as f64, calls)
            }
            _ => (0.0, 0),
        }
    }

    /// The span log as a Chrome trace (open in Perfetto or
    /// `chrome://tracing`); parent ids ride along in `args`.
    pub fn chrome_trace(&self, process: &str) -> String {
        let spans = self.spans.lock().expect("span log lock");
        let mut events = Vec::with_capacity(spans.len());
        for s in spans.iter() {
            events.push(format!(
                "{{\"name\":{},\"cat\":\"geobench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"calls\":{}}}}}",
                crate::util::json_str(s.name),
                s.tid,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.id,
                s.parent,
                s.calls
            ));
        }
        format!(
            "{{\"otherData\":{{\"process\":{}}},\"traceEvents\":[\n{}\n]}}\n",
            crate::util::json_str(process),
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.call("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.totals().is_empty());
        assert_eq!(t.per_call("x", 1e6), (0.0, 0));
    }

    #[test]
    fn batches_count_every_call_and_nest() {
        let t = Tracer::new(true);
        let outer = t.open("outer", 0);
        let parent = outer.id();
        t.batch("inner", parent, 10, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.close(outer, 1, 0);
        let totals = t.totals();
        assert_eq!(totals["inner"].0, 10);
        assert_eq!(totals["outer"].0, 1);
        let (per_call_ms, calls) = t.per_call("inner", 1e3);
        assert_eq!(calls, 10);
        assert!(per_call_ms >= 0.2, "{per_call_ms}");
        let trace = t.chrome_trace("test");
        assert!(trace.contains(&format!("\"parent\":{parent}")));
    }
}
