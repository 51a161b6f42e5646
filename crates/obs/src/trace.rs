//! Hierarchical spans with Chrome trace-event export.
//!
//! A [`Tracer`] hands out RAII [`SpanGuard`]s. Creating a guard stamps a
//! monotonic start time; dropping it records one *complete* event
//! (`ph: "X"` in the trace-event format) carrying the span's category,
//! name, thread id, microsecond timestamp, and duration. Parent/child
//! links are positional, exactly as Chrome's trace viewer reconstructs
//! them: a span whose `[ts, ts+dur)` interval lies inside another span's
//! interval *on the same thread* is its child.
//!
//! Recording is contention-free in the steady state: events are pushed
//! into one of [`SHARDS`] buffers selected by the recording thread's id,
//! so two threads only share a buffer (and its uncontended mutex) when
//! their ids collide mod [`SHARDS`] — with the analyzer's worker counts
//! that is rare, and even then the critical section is a `Vec::push`.
//!
//! Determinism contract: for a fixed input, the *structure* of the
//! recorded spans — the multiset of `(category, name)` pairs — is
//! identical at any worker-thread count for every category except
//! `"worker"` (one span per fan-out worker, whose count is the worker
//! count by definition). Timestamps, durations, and thread ids are measurements
//! and vary run to run.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::profile::Profiler;

/// Number of event buffers. Threads pick `tid % SHARDS`, so pushes from
/// different worker threads almost never touch the same mutex.
pub const SHARDS: usize = 32;

/// Process-wide monotonic thread-id allocator: the trace format wants
/// small integer `tid`s, and `std::thread::ThreadId` does not expose one.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The small integer id of the calling thread (stable for the thread's
/// lifetime, unique within the process).
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// One recorded span, in Chrome trace-event terms a complete (`"X"`)
/// event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span category (`"pass"`, `"file"`, `"family"`, `"registry"`,
    /// `"worker"`, …). Categories group spans in trace viewers and define
    /// the determinism contract (see module docs).
    pub cat: &'static str,
    /// Span name (e.g. `"parse views.py"`).
    pub name: String,
    /// Start, in microseconds since the tracer was created.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Recording thread (see [`current_tid`]).
    pub tid: u64,
    /// Key/value annotations (`args` in the trace-event format).
    pub args: Vec<(&'static str, String)>,
}

impl TraceEvent {
    /// End of the span in microseconds since tracer creation.
    pub fn end_us(&self) -> u64 {
        self.ts_us + self.dur_us
    }
}

struct TracerInner {
    epoch: Instant,
    shards: Vec<Mutex<Vec<TraceEvent>>>,
    /// Attached sampling profiler. Disabled by default; when enabled,
    /// every [`SpanGuard`] push/pops one live-stack frame so the sampler
    /// can snapshot the open-span stack of every thread.
    profiler: Profiler,
}

impl TracerInner {
    fn push(&self, event: TraceEvent) {
        let shard = (event.tid as usize) % SHARDS;
        self.shards[shard].lock().expect("trace shard poisoned").push(event);
    }
}

/// A cheap-to-clone span recorder; `Tracer::default()` is disabled and
/// records nothing.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TracerInner>>);

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("Tracer(disabled)"),
            Some(_) => f.write_str("Tracer(enabled)"),
        }
    }
}

impl Tracer {
    /// A disabled tracer: spans are no-ops and name closures never run.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// An enabled tracer recording into fresh buffers; its epoch (the
    /// zero of every timestamp) is the moment of this call.
    pub fn enabled() -> Self {
        Tracer::enabled_with_profiler(Profiler::disabled())
    }

    /// An enabled tracer with a sampling [`Profiler`] attached: every
    /// span guard additionally maintains the live span stack the
    /// profiler's sampler thread snapshots. With a disabled profiler
    /// this is exactly [`Tracer::enabled`].
    pub fn enabled_with_profiler(profiler: Profiler) -> Self {
        let shards = (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect();
        Tracer(Some(Arc::new(TracerInner { epoch: Instant::now(), shards, profiler })))
    }

    /// The attached sampling profiler (disabled when the tracer is
    /// disabled or was built without one).
    pub fn profiler(&self) -> Profiler {
        match &self.0 {
            None => Profiler::disabled(),
            Some(inner) => inner.profiler.clone(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Microseconds since the tracer's epoch (0 when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.0 {
            None => 0,
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
        }
    }

    /// Opens a span; the returned guard records one event when dropped.
    /// The name closure only runs when the tracer is enabled, so call
    /// sites can `format!` freely without paying for it in disabled runs.
    pub fn span<F>(&self, cat: &'static str, name: F) -> SpanGuard
    where
        F: FnOnce() -> String,
    {
        match &self.0 {
            None => SpanGuard(None),
            Some(inner) => {
                let name = name();
                inner.profiler.push_frame(cat, &name);
                SpanGuard(Some(ActiveSpan {
                    inner: Arc::clone(inner),
                    cat,
                    name,
                    start: Instant::now(),
                    args: Vec::new(),
                }))
            }
        }
    }

    /// Records a pre-measured span with an explicit start timestamp (in
    /// microseconds since the epoch, as returned by [`Tracer::now_us`]).
    /// Used for synthetic sub-spans whose duration was accumulated rather
    /// than measured wall-to-wall, e.g. per-pattern-family time within a
    /// file's detection span.
    pub fn record(
        &self,
        cat: &'static str,
        name: String,
        ts_us: u64,
        dur_us: u64,
        args: Vec<(&'static str, String)>,
    ) {
        if let Some(inner) = &self.0 {
            inner.push(TraceEvent { cat, name, ts_us, dur_us, tid: current_tid(), args });
        }
    }

    /// Snapshot of every recorded event, sorted by `(ts, tid, name)` so
    /// the order is reproducible for a given set of measurements.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.0 else { return Vec::new() };
        let mut all = Vec::new();
        for shard in &inner.shards {
            all.extend(shard.lock().expect("trace shard poisoned").iter().cloned());
        }
        all.sort_by(|a, b| {
            (a.ts_us, a.tid, &a.name, a.dur_us).cmp(&(b.ts_us, b.tid, &b.name, b.dur_us))
        });
        all
    }

    /// Renders every recorded event as Chrome trace-event JSON (the
    /// "JSON Array Format" wrapped in an object), loadable in
    /// `chrome://tracing` and Perfetto. Returns an empty trace when
    /// disabled.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
                escape_json(&e.name),
                escape_json(e.cat),
                e.ts_us,
                e.dur_us,
                e.tid
            ));
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct ActiveSpan {
    inner: Arc<TracerInner>,
    cat: &'static str,
    name: String,
    start: Instant,
    args: Vec<(&'static str, String)>,
}

/// RAII guard for an open span; records the event on drop.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Attaches a key/value annotation (no-op on a disabled span).
    pub fn arg(&mut self, key: &'static str, value: String) {
        if let Some(active) = &mut self.0 {
            active.args.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        // Span guards are strictly LIFO per thread, so this pops the
        // frame the matching `span()` pushed. Synthetic `record()` spans
        // never touch the live stack — they are not "open" time.
        active.inner.profiler.pop_frame();
        // Both endpoints are floored *absolute* microsecond offsets, so
        // `a ≤ b` in real time implies `ts(a) ≤ ts(b)` after truncation —
        // which is what keeps child spans inside their parents even at
        // microsecond granularity.
        let ts_us = active.start.duration_since(active.inner.epoch).as_micros() as u64;
        let end_us = active.inner.epoch.elapsed().as_micros() as u64;
        let dur_us = end_us.saturating_sub(ts_us);
        let event = TraceEvent {
            cat: active.cat,
            name: active.name,
            ts_us,
            dur_us,
            tid: current_tid(),
            args: active.args,
        };
        active.inner.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_skips_name_closure() {
        let t = Tracer::disabled();
        let ran = std::cell::Cell::new(false);
        drop(t.span("pass", || {
            ran.set(true);
            "x".to_string()
        }));
        assert!(!ran.get(), "name closure must not run when disabled");
        assert!(t.events().is_empty());
        assert_eq!(t.to_chrome_trace(), "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}");
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let t = Tracer::enabled();
        {
            let _outer = t.span("pass", || "outer".to_string());
            let _inner = t.span("file", || "inner".to_string());
        }
        let events = t.events();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.tid, inner.tid);
        assert!(outer.ts_us <= inner.ts_us);
        assert!(inner.end_us() <= outer.end_us(), "child ends within parent");
    }

    #[test]
    fn cross_thread_events_are_all_collected() {
        let t = Tracer::enabled();
        std::thread::scope(|scope| {
            for i in 0..8 {
                let t = t.clone();
                scope.spawn(move || {
                    let mut s = t.span("worker", || format!("chunk {i}"));
                    s.arg("items", "1".to_string());
                });
            }
        });
        let events = t.events();
        assert_eq!(events.len(), 8);
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert!(tids.len() > 1, "distinct threads get distinct tids");
    }

    #[test]
    fn chrome_trace_escapes_and_shapes() {
        let t = Tracer::enabled();
        {
            let mut s = t.span("file", || "parse \"a\\b\".py".to_string());
            s.arg("bytes", "12".to_string());
        }
        let json = t.to_chrome_trace();
        assert!(json.contains("\\\"a\\\\b\\\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"bytes\":\"12\"}"));
    }

    #[test]
    fn spans_maintain_the_profiler_live_stack() {
        let t = Tracer::enabled_with_profiler(Profiler::enabled(997));
        let profiler = t.profiler();
        {
            let _outer = t.span("pass", || "detect".to_string());
            let _inner = t.span("file", || "a.py".to_string());
            // record() is synthetic — it must never enter the live stack.
            t.record("family", "PA_u1".to_string(), 0, 1, Vec::new());
            // Hold the nested spans open until the sampler has seen them.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !profiler.report().samples.contains_key("pass:detect;file:a.py") {
                assert!(std::time::Instant::now() < deadline, "{:?}", profiler.report());
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        profiler.stop();
        // Every sample saw the nested guard stack, never the synthetic span.
        for stack in profiler.report().samples.keys() {
            assert!(
                stack == "pass:detect" || stack == "pass:detect;file:a.py",
                "unexpected sampled stack {stack:?}"
            );
        }
    }

    #[test]
    fn record_places_synthetic_spans() {
        let t = Tracer::enabled();
        t.record("family", "PA_u1 views.py".to_string(), 10, 5, vec![("hits", "2".to_string())]);
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].ts_us, events[0].dur_us), (10, 5));
        assert_eq!(events[0].end_us(), 15);
    }
}
