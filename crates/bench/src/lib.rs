//! # cfinder-bench
//!
//! The host package of `cfinder-benchmark`, the standalone end-to-end
//! and per-layer benchmark under `src/bin/cfinder-benchmark` (a package
//! of its own; see its `BENCHMARK.md`), and of `tests/benchmark_smoke.rs`,
//! which builds and runs it at its smoke scale.
//!
//! The package has no code of its own. Every in-repo perf gate, and the
//! Table 10 LoC-scaling sweep, lives in `cfinder perf`
//! (`cfinder_report::perf`).

#![forbid(unsafe_code)]
