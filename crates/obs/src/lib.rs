//! # cfinder-obs
//!
//! The observability substrate of the CFinder reproduction: hierarchical
//! spans, a metrics registry, and nothing else. Both halves share one
//! design rule — **disabled costs (almost) nothing**: a disabled
//! [`Tracer`] or [`Metrics`] is a `None` behind one pointer-sized
//! `Option`, so every instrumentation call in the analyzer collapses to a
//! single branch and no allocation. Production runs of the analyzer pay
//! for observability only when an operator asks for it.
//!
//! * [`trace`] — RAII span guards recorded into sharded, per-thread
//!   buffers (a thread only ever touches its own shard, so pushes never
//!   contend), exported as Chrome trace-event JSON loadable in
//!   `chrome://tracing` or Perfetto.
//! * [`metrics`] — atomic counters and per-family log-linear histograms
//!   with p50/p95/p99 estimation, exported as Prometheus text exposition
//!   or a structured snapshot.
//! * [`profile`] — a wall-clock sampling profiler over the tracer's live
//!   span stacks, exported as flamegraph-collapsed folded stacks and a
//!   top-N hot-span table.
//!
//! The [`Obs`] handle bundles one of each and is what the analyzer
//! plumbing passes around.
//!
//! ```
//! use cfinder_obs::Obs;
//!
//! let obs = Obs::enabled();
//! {
//!     let mut span = obs.tracer.span("pass", || "parse".to_string());
//!     span.arg("files", "3".to_string());
//!     obs.metrics.add("cfinder_source_bytes_total", 1024);
//! }
//! assert_eq!(obs.tracer.events().len(), 1);
//! assert!(obs.tracer.to_chrome_trace().contains("\"name\":\"parse\""));
//! assert!(obs.metrics.to_prometheus_text().contains("cfinder_source_bytes_total 1024"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{
    HistogramSnapshot, MetricFamily, MetricKind, Metrics, MetricsSnapshot, Quantiles, Sample,
};
pub use profile::{HotSpan, ProfileReport, Profiler};
pub use trace::{SpanGuard, TraceEvent, Tracer};

/// A bundle of one tracer and one metrics registry — the single handle the
/// analysis pipeline threads through its passes.
///
/// `Obs::default()` is fully disabled: both members are no-op sinks.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Span recorder (Chrome-trace export).
    pub tracer: Tracer,
    /// Metrics registry (Prometheus exposition).
    pub metrics: Metrics,
}

impl Obs {
    /// A fully disabled handle: every instrumentation call is a no-op.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// A fully enabled handle recording spans and metrics (no sampling
    /// profiler — see [`Obs::profiled`]).
    pub fn enabled() -> Self {
        Obs { tracer: Tracer::enabled(), metrics: Metrics::enabled() }
    }

    /// A fully enabled handle whose tracer also feeds a sampling
    /// [`Profiler`] at `hz` samples per second. Retrieve it (to stop the
    /// sampler and export) via [`Obs::profiler`].
    pub fn profiled(hz: u32) -> Self {
        Obs {
            tracer: Tracer::enabled_with_profiler(Profiler::enabled(hz)),
            metrics: Metrics::enabled(),
        }
    }

    /// The sampling profiler attached to the tracer (disabled unless the
    /// handle came from [`Obs::profiled`]).
    pub fn profiler(&self) -> Profiler {
        self.tracer.profiler()
    }

    /// Whether any half of the handle is recording.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled() || self.metrics.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let mut span = obs.tracer.span("pass", || unreachable!("name closure must not run"));
        span.arg("k", "v".to_string());
        drop(span);
        obs.metrics.inc("cfinder_files_total");
        assert!(obs.tracer.events().is_empty());
        assert!(obs.metrics.snapshot().families.is_empty());
    }

    #[test]
    fn enabled_handle_records_both_halves() {
        let obs = Obs::enabled();
        assert!(obs.is_enabled());
        assert!(!obs.profiler().is_enabled(), "plain enabled() has no profiler");
        drop(obs.tracer.span("pass", || "x".to_string()));
        obs.metrics.inc("cfinder_files_total");
        assert_eq!(obs.tracer.events().len(), 1);
        assert_eq!(obs.metrics.snapshot().families.len(), 1);
    }

    #[test]
    fn profiled_handle_carries_a_live_profiler() {
        let obs = Obs::profiled(97);
        assert!(obs.profiler().is_enabled());
        assert_eq!(obs.profiler().hz(), 97);
        obs.profiler().stop();
        drop(obs.tracer.span("pass", || "x".to_string()));
        assert_eq!(obs.tracer.events().len(), 1, "tracing still records after stop");
    }
}
