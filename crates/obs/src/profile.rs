//! Wall-clock sampling profiler over the tracer's live span stacks.
//!
//! A [`Profiler`] attaches to an enabled [`crate::Tracer`]
//! (via [`crate::Tracer::enabled_with_profiler`]): every open
//! [`crate::SpanGuard`] pushes one frame onto its thread's *live stack*
//! and pops it on drop, and a background **sampler thread** snapshots
//! every live stack at a fixed rate, folding each snapshot into a
//! `stack → sample count` table. The result is a statistical wall-clock
//! profile of exactly the spans the tracer already records — no signal
//! handlers, no unwinding, no platform dependencies — exportable as
//! flamegraph-collapsed text ([`ProfileReport::folded`]) and as a top-N
//! hot-span table ([`ProfileReport::hot_spans`]).
//!
//! Cost model, matching the rest of the crate:
//!
//! * **Disabled** ([`Profiler::disabled`], the default): every hook is a
//!   single `Option` check. A tracer without a profiler pays nothing.
//! * **Enabled**: span open/close additionally clones the span name into
//!   the live stack (one small allocation) and takes one uncontended
//!   per-thread mutex. The sampler wakes `hz` times a second, locks each
//!   registered thread stack for a copy, and sleeps again. The design
//!   budget is ≤5%; `cfinder perf` gates tracing plus the profiler at a
//!   loose ≤75% over obs disabled, so noisy CI hosts don't flake.
//!
//! Sampling times are wall-clock and therefore nondeterministic; the
//! *aggregation* is not. [`Profiler::record_sample`] — the exact fold
//! the sampler uses — produces identical [`ProfileReport`]s for the same
//! multiset of stack snapshots regardless of how many threads recorded
//! them, which is what the profiler determinism test pins.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Default sampling rate. Prime, so the sampler does not phase-lock with
/// periodic work in the analyzer.
pub const DEFAULT_HZ: u32 = 97;

/// One live frame: the open span's category and name.
#[derive(Debug, Clone)]
struct Frame {
    cat: &'static str,
    name: String,
}

/// One thread's live span stack, shared between the owning thread
/// (push/pop) and the sampler (snapshot). The mutex is uncontended
/// except at the sampling instants.
#[derive(Default)]
struct ThreadStack {
    frames: Mutex<Vec<Frame>>,
}

struct ProfilerInner {
    interval: Duration,
    hz: u32,
    /// Every thread stack ever registered with this profiler. Stacks of
    /// finished threads stay (empty) — the registry is bounded by the
    /// peak thread count, not churn.
    registry: Mutex<Vec<Arc<ThreadStack>>>,
    /// Folded stack (`cat:name;cat:name;…`) → number of samples.
    samples: Mutex<BTreeMap<String, u64>>,
    /// Sampler wake-ups, total.
    ticks: AtomicU64,
    /// Wake-ups that found no open span anywhere.
    idle_ticks: AtomicU64,
    stop: AtomicBool,
    sampler: Mutex<Option<JoinHandle<()>>>,
}

thread_local! {
    /// Per-thread cache of `(profiler identity, this thread's stack)`
    /// pairs, so the steady-state push takes no registry lock. Entries
    /// whose profiler died (strong count collapsed to the cache's own
    /// Arc) are pruned on the next miss.
    static LOCAL_STACKS: RefCell<Vec<(usize, Arc<ThreadStack>)>> = const { RefCell::new(Vec::new()) };
}

/// A cheap-to-clone sampling-profiler handle; `Profiler::default()` is
/// disabled and all hooks are no-ops.
#[derive(Clone, Default)]
pub struct Profiler(Option<Arc<ProfilerInner>>);

impl fmt::Debug for Profiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("Profiler(disabled)"),
            Some(inner) => write!(f, "Profiler(enabled, {} Hz)", inner.hz),
        }
    }
}

impl Profiler {
    /// A disabled profiler: hooks are single-branch no-ops and no
    /// sampler thread exists.
    pub fn disabled() -> Self {
        Profiler(None)
    }

    /// An enabled profiler sampling at `hz` (clamped to 1..=1000),
    /// with the sampler thread started immediately. The sampler holds
    /// only a weak reference, so dropping every handle stops it even
    /// without an explicit [`Profiler::stop`].
    pub fn enabled(hz: u32) -> Self {
        let hz = hz.clamp(1, 1000);
        let inner = Arc::new(ProfilerInner {
            interval: Duration::from_secs_f64(1.0 / f64::from(hz)),
            hz,
            registry: Mutex::new(Vec::new()),
            samples: Mutex::new(BTreeMap::new()),
            ticks: AtomicU64::new(0),
            idle_ticks: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            sampler: Mutex::new(None),
        });
        let weak: Weak<ProfilerInner> = Arc::downgrade(&inner);
        let handle = std::thread::Builder::new()
            .name("cfinder-profiler".to_string())
            .spawn(move || sampler_loop(weak))
            .expect("spawn profiler sampler thread");
        *inner.sampler.lock().expect("profiler lock poisoned") = Some(handle);
        Profiler(Some(inner))
    }

    /// Whether sampling hooks are live.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The configured sampling rate (0 when disabled).
    pub fn hz(&self) -> u32 {
        self.0.as_ref().map_or(0, |inner| inner.hz)
    }

    /// Stops the sampler thread and joins it, so no sample lands after
    /// this call returns. Idempotent; a no-op when disabled.
    pub fn stop(&self) {
        let Some(inner) = &self.0 else { return };
        inner.stop.store(true, Ordering::SeqCst);
        let handle = inner.sampler.lock().expect("profiler lock poisoned").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Pushes an opened span's frame onto the calling thread's live
    /// stack. Called by the tracer when a [`crate::SpanGuard`] opens.
    pub(crate) fn push_frame(&self, cat: &'static str, name: &str) {
        let Some(inner) = &self.0 else { return };
        let stack = self.thread_stack(inner);
        stack
            .frames
            .lock()
            .expect("profiler stack poisoned")
            .push(Frame { cat, name: name.to_string() });
    }

    /// Pops the calling thread's most recent frame. Span guards are
    /// strictly LIFO per thread (RAII), so the popped frame is the one
    /// the matching push installed.
    pub(crate) fn pop_frame(&self) {
        let Some(inner) = &self.0 else { return };
        let stack = self.thread_stack(inner);
        stack.frames.lock().expect("profiler stack poisoned").pop();
    }

    /// This thread's stack for this profiler, registering (and caching)
    /// it on first use.
    fn thread_stack(&self, inner: &Arc<ProfilerInner>) -> Arc<ThreadStack> {
        let token = Arc::as_ptr(inner) as usize;
        LOCAL_STACKS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, stack)) = cache.iter().find(|(t, _)| *t == token) {
                return stack.clone();
            }
            // Miss: prune cache entries whose profiler is gone (the
            // registry Arc died, leaving ours as the only owner), then
            // register a fresh stack.
            cache.retain(|(_, stack)| Arc::strong_count(stack) > 1);
            let stack = Arc::new(ThreadStack::default());
            inner.registry.lock().expect("profiler lock poisoned").push(stack.clone());
            cache.push((token, stack.clone()));
            stack
        })
    }

    /// Folds one stack snapshot (outermost frame first, `cat:name`
    /// per frame) into the sample table. This is the sampler's own
    /// aggregation path, public so tests can drive it with a known
    /// multiset of stacks: aggregation is commutative, so any thread
    /// interleaving of the same snapshots yields the same report.
    pub fn record_sample<S: AsRef<str>>(&self, stack: &[S]) {
        let Some(inner) = &self.0 else { return };
        if stack.is_empty() {
            return;
        }
        let folded = stack.iter().map(|f| sanitize(f.as_ref())).collect::<Vec<_>>().join(";");
        *inner.samples.lock().expect("profiler lock poisoned").entry(folded).or_insert(0) += 1;
    }

    /// A point-in-time copy of everything sampled so far.
    pub fn report(&self) -> ProfileReport {
        match &self.0 {
            None => ProfileReport::default(),
            Some(inner) => ProfileReport {
                samples: inner.samples.lock().expect("profiler lock poisoned").clone(),
                ticks: inner.ticks.load(Ordering::Relaxed),
                idle_ticks: inner.idle_ticks.load(Ordering::Relaxed),
                hz: inner.hz,
            },
        }
    }
}

/// The sampler thread body: wake at the configured rate, snapshot every
/// registered live stack, fold non-empty ones into the sample table.
/// Holds only a `Weak`, so the loop ends as soon as the last profiler
/// handle drops (or [`Profiler::stop`] raises the flag).
fn sampler_loop(weak: Weak<ProfilerInner>) {
    loop {
        let Some(inner) = weak.upgrade() else { return };
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let snapshots: Vec<Vec<Frame>> = {
            let registry = inner.registry.lock().expect("profiler lock poisoned");
            registry
                .iter()
                .map(|stack| stack.frames.lock().expect("profiler stack poisoned").clone())
                .collect()
        };
        let profiler = Profiler(Some(inner.clone()));
        let mut any = false;
        for frames in &snapshots {
            if frames.is_empty() {
                continue;
            }
            any = true;
            let stack: Vec<String> =
                frames.iter().map(|f| format!("{}:{}", f.cat, f.name)).collect();
            profiler.record_sample(&stack);
        }
        inner.ticks.fetch_add(1, Ordering::Relaxed);
        if !any {
            inner.idle_ticks.fetch_add(1, Ordering::Relaxed);
        }
        let interval = inner.interval;
        // Drop the strong reference before sleeping so a dropped-everywhere
        // profiler dies within one interval.
        drop(profiler);
        drop(inner);
        std::thread::sleep(interval);
    }
}

/// Frame text sanitized for the folded-stack format: `;` separates
/// frames and newlines separate samples, so neither may appear inside a
/// frame.
fn sanitize(frame: &str) -> String {
    frame.replace([';', '\n'], ",")
}

/// Aggregated samples: what the profiler hands to exporters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Folded stack (`cat:name;cat:name`, root first) → sample count.
    pub samples: BTreeMap<String, u64>,
    /// Sampler wake-ups, total (0 for synthetic test reports).
    pub ticks: u64,
    /// Wake-ups that found no open span.
    pub idle_ticks: u64,
    /// Sampling rate the profiler ran at.
    pub hz: u32,
}

/// One row of the top-N hot-span table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotSpan {
    /// Frame label (`cat:name`).
    pub frame: String,
    /// Samples where this frame was the innermost open span (time spent
    /// *in* the span, excluding children).
    pub self_samples: u64,
    /// Samples where this frame was open anywhere on the stack (time
    /// spent in the span including children).
    pub total_samples: u64,
}

impl ProfileReport {
    /// Total non-idle samples.
    pub fn total_samples(&self) -> u64 {
        self.samples.values().sum()
    }

    /// Flamegraph-collapsed export: one `stack count` line per distinct
    /// folded stack, sorted by stack text. Feed directly to
    /// `flamegraph.pl` / `inferno-flamegraph`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.samples {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// The `n` hottest frames by self time (ties broken by total, then
    /// name), with total (inclusive) counts alongside. A frame appearing
    /// multiple times in one stack (recursive spans) is counted once per
    /// sample for `total_samples`.
    pub fn hot_spans(&self, n: usize) -> Vec<HotSpan> {
        let mut table: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (stack, &count) in &self.samples {
            let frames: Vec<&str> = stack.split(';').collect();
            if let Some(leaf) = frames.last() {
                table.entry(leaf).or_insert((0, 0)).0 += count;
            }
            let mut seen: Vec<&str> = Vec::with_capacity(frames.len());
            for frame in frames {
                if !seen.contains(&frame) {
                    seen.push(frame);
                    table.entry(frame).or_insert((0, 0)).1 += count;
                }
            }
        }
        let mut rows: Vec<HotSpan> = table
            .into_iter()
            .map(|(frame, (self_samples, total_samples))| HotSpan {
                frame: frame.to_string(),
                self_samples,
                total_samples,
            })
            .collect();
        rows.sort_by(|a, b| {
            (b.self_samples, b.total_samples, &a.frame).cmp(&(
                a.self_samples,
                a.total_samples,
                &b.frame,
            ))
        });
        rows.truncate(n);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        assert_eq!(p.hz(), 0);
        p.push_frame("pass", "parse");
        p.pop_frame();
        p.record_sample(&["pass:parse"]);
        p.stop();
        assert_eq!(p.report(), ProfileReport::default());
    }

    #[test]
    fn record_sample_folds_and_exports() {
        let p = Profiler::enabled(1);
        p.stop(); // no background samples — only the synthetic ones below
        p.record_sample(&["pass:detect", "file:detect a.py"]);
        p.record_sample(&["pass:detect", "file:detect a.py"]);
        p.record_sample(&["pass:parse"]);
        p.record_sample::<&str>(&[]); // empty snapshots are idle, not samples
        let report = p.report();
        assert_eq!(report.total_samples(), 3);
        assert_eq!(report.folded(), "pass:detect;file:detect a.py 2\npass:parse 1\n");
        let hot = report.hot_spans(10);
        assert_eq!(hot[0].frame, "file:detect a.py");
        assert_eq!((hot[0].self_samples, hot[0].total_samples), (2, 2));
        let detect = hot.iter().find(|h| h.frame == "pass:detect").unwrap();
        assert_eq!((detect.self_samples, detect.total_samples), (0, 2));
    }

    #[test]
    fn frame_text_is_sanitized_for_the_folded_format() {
        let p = Profiler::enabled(1);
        p.stop();
        p.record_sample(&["file:parse a;b.py", "family:PA_u1\nx"]);
        let folded = p.report().folded();
        assert_eq!(folded, "file:parse a,b.py;family:PA_u1,x 1\n");
    }

    #[test]
    fn hot_spans_counts_recursive_frames_once_per_sample() {
        let p = Profiler::enabled(1);
        p.stop();
        p.record_sample(&["a:x", "b:y", "a:x"]);
        let hot = p.report().hot_spans(10);
        let ax = hot.iter().find(|h| h.frame == "a:x").unwrap();
        assert_eq!((ax.self_samples, ax.total_samples), (1, 1));
    }

    #[test]
    fn live_stacks_are_sampled() {
        let p = Profiler::enabled(997);
        p.push_frame("pass", "busy");
        // Wait until the sampler has provably seen the open span.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while p.report().total_samples() == 0 {
            assert!(std::time::Instant::now() < deadline, "sampler never sampled");
            std::thread::sleep(Duration::from_millis(2));
        }
        p.pop_frame();
        p.stop();
        let report = p.report();
        assert!(report.samples.contains_key("pass:busy"), "{report:?}");
        assert!(report.ticks > 0);
    }

    #[test]
    fn stop_is_idempotent_and_final() {
        let p = Profiler::enabled(500);
        p.stop();
        p.stop();
        let ticks = p.report().ticks;
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(p.report().ticks, ticks, "no tick lands after stop returns");
    }
}
