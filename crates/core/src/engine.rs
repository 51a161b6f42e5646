//! Parallel execution engine for the analysis pipeline.
//!
//! The engine is deliberately tiny: one ordered fan-out primitive
//! ([`map_ordered`]), a per-item panic boundary ([`catch`]), and
//! worker-count resolution ([`resolve_threads`]). Determinism is by
//! construction — the fan-out returns outputs in input order, so a run
//! with N threads produces byte-identical results to a serial run; the
//! thread count only changes wall-clock time.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use cfinder_obs::Tracer;

/// Environment variable overriding the worker-thread count. Values that
/// are zero or unparsable are ignored.
pub const THREADS_ENV: &str = "CFINDER_THREADS";

/// Resolves the worker-thread count: an explicit request wins, else the
/// `CFINDER_THREADS` environment variable, else the machine's available
/// parallelism.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Applies `f` to every item, fanning work out across up to `threads`
/// scoped worker threads, and returns the outputs **in input order**.
///
/// Equivalent to `items.iter().map(f).collect()` for any thread count:
/// each worker claims its next item from a shared index, so a slow item
/// delays only the worker running it, and the `(index, output)` pairs are
/// put back into input order at the end. With one thread (or one item)
/// this is a plain serial map and no thread is spawned.
///
/// Every worker records one `cat: "worker"` span named
/// `"<stage> chunk <i>"` (`i` is the worker index) whose `items` argument
/// counts the items it claimed, so a Chrome trace shows how the work
/// spread. With a disabled tracer the span guards collapse to a single
/// `None` check. The worker *count* depends on the thread count by
/// definition, so `"worker"` spans are the one category excluded from the
/// cross-thread span-structure determinism contract (see `cfinder-obs`).
pub fn map_ordered<T, O, F>(
    items: &[T],
    threads: usize,
    tracer: &Tracer,
    stage: &'static str,
    f: F,
) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        let mut span = tracer.span("worker", || format!("{stage} chunk 0"));
        span.arg("items", items.len().to_string());
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let mut pairs: Vec<(usize, O)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|i| {
                scope.spawn(move || {
                    let mut span = tracer.span("worker", || format!("{stage} chunk {i}"));
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the index only hands out distinct items;
                        // outputs reach this thread through `join`.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else { break };
                        done.push((index, f(item)));
                    }
                    span.arg("items", done.len().to_string());
                    done
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("analysis worker panicked")).collect()
    });
    pairs.sort_unstable_by_key(|&(index, _)| index);
    pairs.into_iter().map(|(_, output)| output).collect()
}

/// Runs `f` under [`catch_unwind`], turning a panic into `Err(message)`:
/// the payload's `&str` or `String`, else a fixed placeholder. Fan-out
/// closures wrap their per-item work in it, so one item's panic costs
/// only that item's result and no worker thread dies.
pub fn catch<O>(f: impl FnOnce() -> O) -> Result<O, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "worker panicked with a non-string payload".to_string()
        }
    })
}
