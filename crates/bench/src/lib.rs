//! # cfinder-bench
//!
//! Criterion benchmarks regenerating the measurable dimension of every
//! paper table and figure:
//!
//! * `paper_tables` — Table 4 (full-pipeline detection over all eight
//!   apps), Table 10 (analysis time vs. LoC scaling), Tables 1–3 (study
//!   aggregation), Table 9 (historical recall), Figure 1 (incident
//!   replays), Figure 2 (race interleavings and the constraint-guard
//!   overhead).
//! * `substrates` — microbenchmarks of the layers the pipeline is built
//!   from: lexing/parsing throughput, CFG + use-def chains, NULL-guard
//!   analysis, and minidb write paths with and without enforcement.
//!
//! Run with `cargo bench --workspace`. These benches time; they gate
//! nothing. Every perf gate — warm cache, query rewrite, observability
//! overhead — lives in `cfinder perf` (`cfinder_report::perf`).

#![forbid(unsafe_code)]

use cfinder_corpus::GenOptions;

/// A tiny generation option for iterated benchmarks (~2% noise LoC).
pub fn bench_options() -> GenOptions {
    GenOptions { loc_scale: 0.02 }
}
