//! # cfinder-report
//!
//! The evaluation harness: joins analyzer output with corpus ground truth
//! to compute precision (Table 7), coverage/recall (Tables 8 and 9), and
//! renders every table and figure of the paper — Tables 1–10 plus the
//! Figure 1 incident replays and Figure 2 race comparison.
//!
//! The `reproduce` binary regenerates all of them into `result/` as text
//! and CSV, mirroring the original artifact's `make run_all`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod baseline;
pub mod interproc;
pub mod metrics;
pub mod perf;
pub mod querybench;
pub mod render;
pub mod tables;

pub use ablation::{ablation_study, ablation_table, AblationRow};
pub use baseline::{baseline_table, evaluate_baseline, populate, BaselineOutcome};
pub use interproc::{interproc_compare, interproc_study, interproc_table, InterprocRow};
pub use metrics::{AppEvaluation, CoverageCell, Evaluation, HistoryRecall, PrecisionCell};
pub use querybench::{query_bench_value, run_query_bench, ClassResult, QueryBenchOptions};
pub use render::{pct, TextTable};

use cfinder_core::{AppSource, SourceFile};
use cfinder_corpus::GeneratedApp;

/// The analyzer's view of a generated corpus app: its name and files.
pub(crate) fn app_source(app: &GeneratedApp) -> AppSource {
    AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    )
}
