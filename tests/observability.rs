//! Integration tests for the observability layer: Chrome-trace
//! well-formedness, span nesting, thread-count determinism of the span
//! structure across the full corpus, and metric/report consistency.

use std::collections::BTreeMap;

use cfinder::core::{AnalysisReport, AppSource, CFinder, SourceFile};
use cfinder::corpus::{self, GenOptions};
use cfinder::obs::{Obs, TraceEvent};

/// Tiny corpus scale: pattern sites are generated in full, only the noise
/// LoC shrinks, so the span *structure* is the real thing.
const SCALE: GenOptions = GenOptions { loc_scale: 0.01 };

fn analyze_with_obs(app: &corpus::GeneratedApp, threads: usize) -> (AnalysisReport, Obs) {
    let obs = Obs::enabled();
    let source = AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    );
    let report =
        CFinder::new().with_threads(threads).with_obs(obs.clone()).analyze(&source, &app.declared);
    (report, obs)
}

/// Spans on one thread must nest like a call stack: for any two, either
/// disjoint in time or one fully contains the other. `SpanGuard::drop`
/// floors both endpoints to whole microseconds, so containment is exact.
fn assert_spans_nest(events: &[TraceEvent]) {
    let mut by_tid: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    for (tid, spans) in &by_tid {
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                let disjoint = a.end_us() <= b.ts_us || b.end_us() <= a.ts_us;
                let a_in_b = b.ts_us <= a.ts_us && a.end_us() <= b.end_us();
                let b_in_a = a.ts_us <= b.ts_us && b.end_us() <= a.end_us();
                assert!(
                    disjoint || a_in_b || b_in_a,
                    "partial overlap on tid {tid}: {} [{}..{}] vs {} [{}..{}]",
                    a.name,
                    a.ts_us,
                    a.end_us(),
                    b.name,
                    b.ts_us,
                    b.end_us(),
                );
            }
        }
    }
}

/// The deterministic part of the span structure: every `(cat, name)` pair
/// except the `worker` spans, whose count tracks the thread count by
/// definition.
fn span_multiset(obs: &Obs) -> BTreeMap<(String, String), usize> {
    let mut multiset = BTreeMap::new();
    for e in obs.tracer.events() {
        if e.cat != "worker" {
            *multiset.entry((e.cat.to_string(), e.name.clone())).or_insert(0) += 1;
        }
    }
    multiset
}

#[test]
fn trace_is_well_formed_and_deterministic_across_thread_counts() {
    for profile in corpus::all_profiles() {
        let app = corpus::generate(&profile, SCALE);
        let mut structures = Vec::new();
        for threads in [1, 2, 4] {
            let (report, obs) = analyze_with_obs(&app, threads);
            let events = obs.tracer.events();
            assert!(!events.is_empty(), "{}: no spans at {threads} threads", app.name);

            // The export is real JSON with the Chrome trace-event shape.
            let json: serde_json::Value =
                serde_json::from_str(&obs.tracer.to_chrome_trace()).expect("trace parses as JSON");
            let exported = json["traceEvents"].as_array().expect("traceEvents array");
            assert_eq!(exported.len(), events.len());
            for e in exported {
                assert_eq!(e["ph"].as_str(), Some("X"), "complete events only: {e:?}");
                assert_eq!(e["pid"].as_u64(), Some(1));
                assert!(e["ts"].as_u64().is_some() && e["dur"].as_u64().is_some(), "{e:?}");
                assert!(e["name"].as_str().is_some_and(|n| !n.is_empty()), "{e:?}");
            }

            // Every span category the tentpole promises is present.
            for cat in ["analyze", "pass", "file", "family", "worker", "registry"] {
                assert!(
                    events.iter().any(|e| e.cat == cat),
                    "{}: no `{cat}` span at {threads} threads",
                    app.name
                );
            }
            // One worker span per fan-out worker, never more workers
            // than threads.
            for stage in ["parse", "detect"] {
                let chunks = events
                    .iter()
                    .filter(|e| e.cat == "worker" && e.name.starts_with(stage))
                    .count();
                assert!(
                    (1..=threads).contains(&chunks),
                    "{}: {chunks} `{stage}` chunks at {threads} threads",
                    app.name
                );
            }

            assert_spans_nest(&events);

            // Child spans stay inside the analyze root.
            let root = events
                .iter()
                .find(|e| e.cat == "analyze")
                .unwrap_or_else(|| panic!("{}: missing root span", app.name));
            for e in &events {
                assert!(
                    root.ts_us <= e.ts_us && e.end_us() <= root.end_us(),
                    "{}: span {} escapes the analyze root",
                    app.name,
                    e.name
                );
            }

            structures.push((threads, report.missing.len(), span_multiset(&obs)));
        }
        let (_, baseline_missing, baseline) = &structures[0];
        for (threads, missing, multiset) in &structures[1..] {
            assert_eq!(missing, baseline_missing, "{}: results differ", app.name);
            assert_eq!(
                multiset, baseline,
                "{}: span structure differs between 1 and {threads} threads",
                app.name
            );
        }
    }
}

#[test]
fn metrics_match_the_report_and_expose_enough_families() {
    let app = corpus::generate(&corpus::profile("oscar").expect("profile"), SCALE);
    let (report, obs) = analyze_with_obs(&app, 2);

    let text = obs.metrics.to_prometheus_text();
    let families = text.lines().filter(|l| l.starts_with("# TYPE")).count();
    assert!(families >= 12, "only {families} metric families:\n{text}");
    assert!(text.contains("cfinder_file_parse_seconds_bucket{le="), "{text}");
    assert!(text.lines().any(|l| l.starts_with("cfinder_detections_total{pattern=")), "{text}");

    let snapshot = obs.metrics.snapshot();
    assert_eq!(snapshot.family_total("cfinder_detections_total"), report.detections.len() as u64);
    assert_eq!(snapshot.counter("cfinder_files_total"), app.files.len() as u64);
    assert_eq!(snapshot.counter("cfinder_files_parsed_total"), report.files_total as u64);
    assert_eq!(snapshot.counter("cfinder_loc_total"), report.loc as u64);
    assert_eq!(
        snapshot.family_total("cfinder_missing_constraints_total"),
        report.missing.len() as u64
    );
    assert_eq!(snapshot.counter("cfinder_analyses_total"), 1);
}

#[test]
fn disabled_obs_records_nothing() {
    let app = corpus::generate(&corpus::profile("wagtail").expect("profile"), SCALE);
    let obs = Obs::disabled();
    let source = AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    );
    let _ = CFinder::new().with_obs(obs.clone()).analyze(&source, &app.declared);
    assert!(obs.tracer.events().is_empty());
    assert!(obs.metrics.snapshot().families.is_empty());
    assert!(!obs.is_enabled());
}
