//! Atomic counters and log-linear-bucket histograms with quantile
//! estimation and Prometheus text exposition.
//!
//! The registry is dynamic — families appear on first touch — but the hot
//! path is cheap: an increment takes one `RwLock` *read* lock to find the
//! family's `AtomicU64`, then a relaxed atomic add. The write lock is
//! only taken once per `(family, label)` pair, when it is first seen.
//! Aggregation across worker threads is therefore order-independent,
//! which is what keeps metric values deterministic at any thread count.
//!
//! Histogram bucket bounds are **per family** (see [`bucket_bounds`]):
//! per-file latencies use the parse-sized ladder, whole-request daemon
//! latencies a request-sized one, so neither family saturates its edge
//! buckets. Quantiles (p50/p95/p99) are estimated from the bucket counts
//! by linear interpolation within the enclosing bucket —
//! [`HistogramSnapshot::quantile`] — and surfaced both in
//! [`MetricsSnapshot`] and as summary-style `quantile="…"` lines in the
//! exposition.
//!
//! Known families carry curated `# HELP` text (see [`family_help`]); ad
//! hoc families fall back to a generic line so exposition is always
//! well-formed.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};

/// Histogram bucket upper bounds, in seconds — sized for per-file parse
/// and detection latencies (100 µs … 10 s, roughly log-spaced).
pub const LATENCY_BUCKETS_SECONDS: [f64; 12] =
    [0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 1.0, 10.0];

/// Histogram bucket upper bounds, in seconds, for whole-request daemon
/// latencies (queue wait, end-to-end handling): 5 µs … 120 s, log-linear
/// with a 1–2.5–5 progression. Wide enough that a cold full-corpus
/// analyze lands in a finite bucket instead of `+Inf`.
pub const REQUEST_BUCKETS_SECONDS: [f64; 18] = [
    0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.05, 0.25, 1.0, 5.0, 15.0, 60.0, 120.0,
];

/// The bucket ladder a histogram family records into. Daemon request
/// families (`cfinder_serve_*`) measure whole requests — queueing plus a
/// possibly cold multi-file analysis — and get the request-sized ladder;
/// everything else measures per-file work and keeps the parse-sized one.
pub fn bucket_bounds(family: &str) -> &'static [f64] {
    if family.starts_with("cfinder_serve_") {
        &REQUEST_BUCKETS_SECONDS
    } else {
        &LATENCY_BUCKETS_SECONDS
    }
}

/// The quantiles every histogram family reports (p50/p95/p99).
pub const REPORTED_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// Registry key: family name plus an optional single label pair.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    family: &'static str,
    label: Option<(&'static str, String)>,
}

/// A fixed-bucket histogram: per-bucket counts plus sum and count, all
/// atomic. The bucket ladder is chosen per family at creation (see
/// [`bucket_bounds`]).
struct Histogram {
    /// Upper bounds of the finite buckets, in seconds.
    bounds: &'static [f64],
    /// One slot per bound, plus a final `+Inf` slot.
    buckets: Vec<AtomicU64>,
    /// Sum of observations in nanoseconds (fits ~584 years).
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, seconds: f64) {
        let idx = self.bounds.iter().position(|&le| seconds <= le).unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct MetricsInner {
    counters: RwLock<BTreeMap<Key, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<Key, Arc<Histogram>>>,
}

/// A cheap-to-clone metrics registry; `Metrics::default()` is disabled
/// and records nothing.
#[derive(Clone, Default)]
pub struct Metrics(Option<Arc<MetricsInner>>);

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("Metrics(disabled)"),
            Some(_) => f.write_str("Metrics(enabled)"),
        }
    }
}

impl Metrics {
    /// A disabled registry: every operation is a no-op.
    pub fn disabled() -> Self {
        Metrics(None)
    }

    /// An enabled, empty registry.
    pub fn enabled() -> Self {
        Metrics(Some(Arc::new(MetricsInner::default())))
    }

    /// Whether metrics are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `v` to an unlabeled counter family.
    pub fn add(&self, family: &'static str, v: u64) {
        self.add_key(Key { family, label: None }, v);
    }

    /// Increments an unlabeled counter family by one.
    pub fn inc(&self, family: &'static str) {
        self.add(family, 1);
    }

    /// Adds `v` to the `{label_key="label_value"}` sample of a counter
    /// family.
    pub fn add_labeled(
        &self,
        family: &'static str,
        label_key: &'static str,
        label_value: &str,
        v: u64,
    ) {
        self.add_key(Key { family, label: Some((label_key, label_value.to_string())) }, v);
    }

    fn add_key(&self, key: Key, v: u64) {
        let Some(inner) = &self.0 else { return };
        {
            let map = inner.counters.read().expect("metrics lock poisoned");
            if let Some(c) = map.get(&key) {
                c.fetch_add(v, Ordering::Relaxed);
                return;
            }
        }
        let mut map = inner.counters.write().expect("metrics lock poisoned");
        map.entry(key)
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .fetch_add(v, Ordering::Relaxed);
    }

    /// Records one observation (in seconds) into a histogram family.
    pub fn observe(&self, family: &'static str, seconds: f64) {
        let Some(inner) = &self.0 else { return };
        let key = Key { family, label: None };
        let hist = {
            let map = inner.histograms.read().expect("metrics lock poisoned");
            map.get(&key).cloned()
        };
        let hist = match hist {
            Some(h) => h,
            None => {
                let mut map = inner.histograms.write().expect("metrics lock poisoned");
                Arc::clone(
                    map.entry(key)
                        .or_insert_with(|| Arc::new(Histogram::new(bucket_bounds(family)))),
                )
            }
        };
        hist.observe(seconds);
    }

    /// A structured, deterministic snapshot of everything recorded so far
    /// (families and samples sorted by name/label).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.0 else { return MetricsSnapshot { families: Vec::new() } };
        let mut families: BTreeMap<&'static str, MetricFamily> = BTreeMap::new();
        for (key, counter) in inner.counters.read().expect("metrics lock poisoned").iter() {
            let fam = families.entry(key.family).or_insert_with(|| MetricFamily {
                name: key.family.to_string(),
                help: family_help(key.family).to_string(),
                kind: MetricKind::Counter,
                samples: Vec::new(),
            });
            fam.samples.push(Sample {
                label: key.label.as_ref().map(|(k, v)| (k.to_string(), v.clone())),
                value: counter.load(Ordering::Relaxed),
                histogram: None,
            });
        }
        for (key, hist) in inner.histograms.read().expect("metrics lock poisoned").iter() {
            let fam = families.entry(key.family).or_insert_with(|| MetricFamily {
                name: key.family.to_string(),
                help: family_help(key.family).to_string(),
                kind: MetricKind::Histogram,
                samples: Vec::new(),
            });
            fam.kind = MetricKind::Histogram;
            let mut buckets = Vec::new();
            let mut cumulative = 0;
            for (i, &le) in hist.bounds.iter().enumerate() {
                cumulative += hist.buckets[i].load(Ordering::Relaxed);
                buckets.push((le, cumulative));
            }
            cumulative += hist.buckets[hist.bounds.len()].load(Ordering::Relaxed);
            buckets.push((f64::INFINITY, cumulative));
            fam.samples.push(Sample {
                label: key.label.as_ref().map(|(k, v)| (k.to_string(), v.clone())),
                value: hist.count.load(Ordering::Relaxed),
                histogram: Some(HistogramSnapshot {
                    buckets,
                    sum_seconds: hist.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
                    count: hist.count.load(Ordering::Relaxed),
                }),
            });
        }
        MetricsSnapshot { families: families.into_values().collect() }
    }

    /// Renders the registry in Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers followed by samples,
    /// histogram families as `_bucket`/`_sum`/`_count` series.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for fam in self.snapshot().families {
            out.push_str(&format!("# HELP {} {}\n", fam.name, fam.help));
            out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind));
            for sample in &fam.samples {
                match &sample.histogram {
                    None => {
                        let labels = match &sample.label {
                            Some((k, v)) => format!("{{{}=\"{}\"}}", k, escape_label(v)),
                            None => String::new(),
                        };
                        out.push_str(&format!("{}{} {}\n", fam.name, labels, sample.value));
                    }
                    Some(hist) => {
                        for (le, cumulative) in &hist.buckets {
                            let le =
                                if le.is_infinite() { "+Inf".to_string() } else { format!("{le}") };
                            out.push_str(&format!(
                                "{}_bucket{{le=\"{}\"}} {}\n",
                                fam.name, le, cumulative
                            ));
                        }
                        out.push_str(&format!("{}_sum {}\n", fam.name, hist.sum_seconds));
                        out.push_str(&format!("{}_count {}\n", fam.name, hist.count));
                        for q in REPORTED_QUANTILES {
                            out.push_str(&format!(
                                "{}{{quantile=\"{}\"}} {}\n",
                                fam.name,
                                q,
                                hist.quantile(q)
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Curated `# HELP` text for the analyzer's metric catalog; unknown
/// families get a generic line.
pub fn family_help(family: &str) -> &'static str {
    match family {
        "cfinder_analyses_total" => "Completed CFinder::analyze runs.",
        "cfinder_files_total" => "Source files submitted to the parser.",
        "cfinder_files_parsed_total" => "Source files that produced a (possibly partial) module.",
        "cfinder_files_dropped_total" => {
            "Source files that contributed nothing (guards, parse failure, panic)."
        }
        "cfinder_source_bytes_total" => "Bytes of source text submitted.",
        "cfinder_source_lines_total" => "Lines of analyzed source.",
        "cfinder_tokens_total" => "Lexer tokens produced.",
        "cfinder_ast_nodes_total" => "AST nodes allocated by the parser.",
        "cfinder_statements_total" => "Statements in parsed modules (deep count).",
        "cfinder_models_total" => "Model classes in the extracted registry.",
        "cfinder_resolutions_total" => {
            "Top-level expression resolutions served by the data-dependency resolver."
        }
        "cfinder_model_fields_total" => "Fields across all extracted models.",
        "cfinder_detections_total" => "Pattern matches, by PA_* pattern.",
        "cfinder_incidents_total" => "Degradation incidents, by kind.",
        "cfinder_missing_constraints_total" => {
            "Inferred constraints absent from the declared schema, by type."
        }
        "cfinder_existing_covered_total" => {
            "Inferred constraints already present in the declared schema."
        }
        "cfinder_stage_duration_microseconds_total" => "Pipeline stage wall-clock time, by stage.",
        "cfinder_cache_hits_total" => "Incremental-cache lookups that replayed a valid entry.",
        "cfinder_cache_misses_total" => {
            "Incremental-cache lookups that missed (absent, corrupt, or stale entries)."
        }
        "cfinder_cache_writes_total" => "Incremental-cache entries written back.",
        "cfinder_cache_write_errors_total" => {
            "Incremental-cache writes skipped on I/O or encode failure, by cause."
        }
        "cfinder_cache_corrupt_total" => {
            "Damaged (truncated, corrupt, stale) incremental-cache entries encountered."
        }
        "cfinder_file_parse_seconds" => "Per-file parse latency.",
        "cfinder_file_detect_seconds" => "Per-file pattern-detection latency.",
        "cfinder_serve_requests_total" => "Daemon request frames handled, by command.",
        "cfinder_serve_errors_total" => "Daemon typed error frames returned, by code.",
        "cfinder_serve_rejected_total" => "Daemon requests rejected by queue backpressure.",
        "cfinder_serve_queue_wait_seconds" => "Daemon request time spent queued before a worker.",
        "cfinder_serve_handle_seconds" => "Daemon request handling latency, by command.",
        "cfinder_serve_slow_requests_total" => {
            "Daemon requests slower end-to-end than the slow-request threshold."
        }
        "cfinder_profile_samples_total" => "Sampling-profiler stack samples captured.",
        "cfinder_query_executions_total" => "minidb query-plan executions.",
        "cfinder_query_rows_scanned_total" => "Base-table rows visited by minidb scans.",
        "cfinder_query_rows_returned_total" => "Rows returned by minidb query executions.",
        "cfinder_query_rewrites_total" => {
            "Constraint-driven plan rewrites applied by the minidb optimizer, by rule."
        }
        "cfinder_query_seconds" => "minidb query execution latency.",
        _ => "cfinder metric.",
    }
}

/// What a family's samples mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Fixed-bucket histogram.
    Histogram,
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        })
    }
}

/// Point-in-time copy of one metric family.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    /// Family name (`cfinder_*`).
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// Counter or histogram.
    pub kind: MetricKind,
    /// Samples, sorted by label.
    pub samples: Vec<Sample>,
}

/// One sample of a family.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The single label pair, if the family is labeled.
    pub label: Option<(String, String)>,
    /// Counter value, or observation count for histograms.
    pub value: u64,
    /// Bucket data for histogram samples.
    pub histogram: Option<HistogramSnapshot>,
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// `(upper bound in seconds, cumulative count)` pairs ending with
    /// `+Inf`.
    pub buckets: Vec<(f64, u64)>,
    /// Sum of observations in seconds.
    pub sum_seconds: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (q in `[0, 1]`) from the bucket counts,
    /// Prometheus `histogram_quantile` style: find the first bucket whose
    /// cumulative count reaches rank `q·count`, then interpolate linearly
    /// between the bucket's edges. Guarantees, pinned by the proptests:
    /// the estimate is monotone in `q`, lies within the enclosing
    /// bucket's `(lower, upper]` edges, and mass above the last finite
    /// bound clamps to that bound (`+Inf` has no width to interpolate).
    /// An empty histogram estimates 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut prev_bound = 0.0;
        let mut prev_cum = 0u64;
        for &(le, cum) in &self.buckets {
            if cum > prev_cum && cum as f64 >= rank {
                if le.is_infinite() {
                    return prev_bound;
                }
                let frac = ((rank - prev_cum as f64) / (cum - prev_cum) as f64).clamp(0.0, 1.0);
                return prev_bound + frac * (le - prev_bound);
            }
            prev_cum = prev_cum.max(cum);
            if le.is_finite() {
                prev_bound = le;
            }
        }
        prev_bound
    }
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Families sorted by name.
    pub families: Vec<MetricFamily>,
}

/// The [`REPORTED_QUANTILES`] estimates of one histogram family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Quantiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl MetricsSnapshot {
    /// The value of an unlabeled counter (0 when absent).
    pub fn counter(&self, family: &str) -> u64 {
        self.sample(family, None)
    }

    /// The value of one labeled counter sample (0 when absent).
    pub fn labeled_counter(&self, family: &str, label_value: &str) -> u64 {
        self.sample(family, Some(label_value))
    }

    /// Sum of every sample of a family (0 when absent).
    pub fn family_total(&self, family: &str) -> u64 {
        self.families
            .iter()
            .filter(|f| f.name == family)
            .flat_map(|f| f.samples.iter())
            .map(|s| s.value)
            .sum()
    }

    /// The histogram snapshot of an unlabeled histogram family, when
    /// present and observed at least once.
    pub fn histogram(&self, family: &str) -> Option<&HistogramSnapshot> {
        self.families
            .iter()
            .filter(|f| f.name == family)
            .flat_map(|f| f.samples.iter())
            .find(|s| s.label.is_none())
            .and_then(|s| s.histogram.as_ref())
    }

    /// p50/p95/p99 estimates for a histogram family, or `None` when the
    /// family is absent or empty.
    pub fn quantiles(&self, family: &str) -> Option<Quantiles> {
        let hist = self.histogram(family)?;
        if hist.count == 0 {
            return None;
        }
        let [p50, p95, p99] = REPORTED_QUANTILES.map(|q| hist.quantile(q));
        Some(Quantiles { p50, p95, p99 })
    }

    fn sample(&self, family: &str, label_value: Option<&str>) -> u64 {
        self.families
            .iter()
            .filter(|f| f.name == family)
            .flat_map(|f| f.samples.iter())
            .find(|s| match (label_value, &s.label) {
                (None, None) => true,
                (Some(v), Some((_, sv))) => v == sv,
                _ => false,
            })
            .map(|s| s.value)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let m = Metrics::disabled();
        m.inc("cfinder_files_total");
        m.observe("cfinder_file_parse_seconds", 0.001);
        assert!(m.snapshot().families.is_empty());
        assert_eq!(m.to_prometheus_text(), "");
    }

    #[test]
    fn counters_accumulate_and_expose() {
        let m = Metrics::enabled();
        m.inc("cfinder_files_total");
        m.add("cfinder_files_total", 2);
        m.add_labeled("cfinder_detections_total", "pattern", "PA_u1", 4);
        m.add_labeled("cfinder_detections_total", "pattern", "PA_n1", 1);
        let snap = m.snapshot();
        assert_eq!(snap.counter("cfinder_files_total"), 3);
        assert_eq!(snap.labeled_counter("cfinder_detections_total", "PA_u1"), 4);
        assert_eq!(snap.family_total("cfinder_detections_total"), 5);
        let text = m.to_prometheus_text();
        assert!(text.contains("# TYPE cfinder_files_total counter"), "{text}");
        assert!(text.contains("cfinder_files_total 3"), "{text}");
        assert!(text.contains("cfinder_detections_total{pattern=\"PA_u1\"} 4"), "{text}");
        assert!(text.contains("# HELP cfinder_detections_total Pattern matches"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::enabled();
        m.observe("cfinder_file_parse_seconds", 0.0002); // ≤ 0.00025
        m.observe("cfinder_file_parse_seconds", 0.002); // ≤ 0.0025
        m.observe("cfinder_file_parse_seconds", 99.0); // +Inf
        let snap = m.snapshot();
        let fam = &snap.families[0];
        assert_eq!(fam.kind, MetricKind::Histogram);
        let hist = fam.samples[0].histogram.as_ref().unwrap();
        assert_eq!(hist.count, 3);
        assert!((hist.sum_seconds - 99.0022).abs() < 1e-3, "{}", hist.sum_seconds);
        let last = hist.buckets.last().unwrap();
        assert!(last.0.is_infinite());
        assert_eq!(last.1, 3, "+Inf bucket is the total count");
        // Cumulative monotone.
        for pair in hist.buckets.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        let text = m.to_prometheus_text();
        assert!(text.contains("cfinder_file_parse_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("cfinder_file_parse_seconds_count 3"), "{text}");
    }

    #[test]
    fn serve_families_use_request_scaled_buckets() {
        assert_eq!(bucket_bounds("cfinder_serve_handle_seconds"), &REQUEST_BUCKETS_SECONDS);
        assert_eq!(bucket_bounds("cfinder_serve_queue_wait_seconds"), &REQUEST_BUCKETS_SECONDS);
        assert_eq!(bucket_bounds("cfinder_file_parse_seconds"), &LATENCY_BUCKETS_SECONDS);
        let m = Metrics::enabled();
        // 30 s saturates the parse ladder (+Inf) but must land in a
        // finite request bucket.
        m.observe("cfinder_serve_handle_seconds", 30.0);
        let snap = m.snapshot();
        let hist = snap.histogram("cfinder_serve_handle_seconds").unwrap();
        let infinite = hist.buckets.last().unwrap();
        let before_inf = hist.buckets[hist.buckets.len() - 2];
        assert_eq!(infinite.1 - before_inf.1, 0, "30s must not overflow to +Inf");
        let text = m.to_prometheus_text();
        assert!(text.contains("cfinder_serve_handle_seconds_bucket{le=\"60\"} 1"), "{text}");
    }

    #[test]
    fn quantile_known_answers() {
        // All mass in (1.0, 2.0]: interpolation stays inside that bucket.
        let hist = HistogramSnapshot {
            buckets: vec![(1.0, 0), (2.0, 10), (f64::INFINITY, 10)],
            sum_seconds: 15.0,
            count: 10,
        };
        assert_eq!(hist.quantile(0.0), 1.0);
        assert_eq!(hist.quantile(0.5), 1.5);
        assert_eq!(hist.quantile(1.0), 2.0);

        // Mass split across two buckets.
        let hist = HistogramSnapshot {
            buckets: vec![(1.0, 10), (2.0, 20), (f64::INFINITY, 20)],
            sum_seconds: 0.0,
            count: 20,
        };
        assert_eq!(hist.quantile(0.25), 0.5);
        assert_eq!(hist.quantile(0.5), 1.0);
        assert_eq!(hist.quantile(0.75), 1.5);

        // All mass above the last finite bound clamps to it.
        let hist = HistogramSnapshot {
            buckets: vec![(1.0, 0), (f64::INFINITY, 5)],
            sum_seconds: 50.0,
            count: 5,
        };
        assert_eq!(hist.quantile(0.5), 1.0);
        assert_eq!(hist.quantile(0.99), 1.0);

        // Empty histogram estimates 0.
        let hist = HistogramSnapshot {
            buckets: vec![(1.0, 0), (f64::INFINITY, 0)],
            sum_seconds: 0.0,
            count: 0,
        };
        assert_eq!(hist.quantile(0.5), 0.0);
    }

    #[test]
    fn snapshot_and_exposition_surface_quantiles() {
        let m = Metrics::enabled();
        for _ in 0..100 {
            m.observe("cfinder_file_parse_seconds", 0.0002); // (0.0001, 0.00025]
        }
        let snap = m.snapshot();
        let Quantiles { p50, p95, p99 } = snap.quantiles("cfinder_file_parse_seconds").unwrap();
        assert!((p50 - 0.000175).abs() < 1e-12, "{p50}");
        assert!(p50 <= p95 && p95 <= p99, "monotone: {p50} {p95} {p99}");
        assert!((0.0001..=0.00025).contains(&p99), "within the bucket: {p99}");
        assert!(snap.quantiles("cfinder_no_such_family").is_none());
        let text = m.to_prometheus_text();
        assert!(text.contains("cfinder_file_parse_seconds{quantile=\"0.5\"} 0.000175"), "{text}");
        assert!(text.contains("cfinder_file_parse_seconds{quantile=\"0.99\"}"), "{text}");
    }

    #[test]
    fn concurrent_adds_are_summed() {
        let m = Metrics::enabled();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.inc("cfinder_tokens_total");
                    }
                });
            }
        });
        assert_eq!(m.snapshot().counter("cfinder_tokens_total"), 8000);
    }

    #[test]
    fn label_escaping() {
        let m = Metrics::enabled();
        m.add_labeled("weird", "k", "a\"b\\c", 1);
        let text = m.to_prometheus_text();
        assert!(text.contains("weird{k=\"a\\\"b\\\\c\"} 1"), "{text}");
    }
}
