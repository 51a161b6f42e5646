//! # cfinder-core
//!
//! CFinder: automatic inference of missing database constraints from web-
//! application source code (Huang, Shen, Zhong, Zhou — ASPLOS '23),
//! reimplemented in Rust.
//!
//! The pipeline follows §3.2 of the paper:
//!
//! 1. **Pattern recognition** — seven code patterns with implicit constraint
//!    assumptions ([`report::PatternId`], [`patterns`]).
//! 2. **Pattern detection** — control-dependency splitting, breadth-first
//!    syntax-pattern matching ([`syntax`]), and data-dependency checks via
//!    use-def chains and model metadata ([`resolve`], [`models`]).
//! 3. **Constraint extraction** — table identification across foreign-key
//!    chains, composite and partial unique handling, and the diff against
//!    the declared schema ([`detect`]).
//!
//! ```
//! use cfinder_core::{AppSource, CFinder, SourceFile};
//! use cfinder_schema::Schema;
//!
//! let app = AppSource::new(
//!     "demo",
//!     vec![SourceFile::new(
//!         "models.py",
//!         "class User(models.Model):\n    email = models.CharField(max_length=254)\n\n\ndef signup(email):\n    if User.objects.filter(email=email).exists():\n        raise ValueError('taken')\n    User.objects.create(email=email)\n",
//!     )],
//! );
//! let report = CFinder::new().analyze(&app, &Schema::new());
//! assert_eq!(report.missing.len(), 1);
//! assert_eq!(report.missing[0].constraint.to_string(), "User Unique (email)");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod detect;
pub mod engine;
pub mod fsio;
pub mod incident;
pub mod models;
pub mod patterns;
pub mod report;
pub mod resolve;
pub mod syntax;
pub mod usage;

pub use cache::{AnalysisCache, CacheError, CacheStats, WriteSkip};
pub use cfinder_obs::Obs;
pub use detect::{effective_limits, AppSource, CFinder, CFinderOptions, Limits, SourceFile};
pub use fsio::{atomic_write, load_app, SourceMemo};
pub use incident::{Coverage, Incident, IncidentKind};
pub use models::{FieldInfo, FieldKind, ModelInfo, ModelRegistry};
pub use report::{
    AnalysisReport, Detection, Explanation, HelperHop, MissingConstraint, PatternId, Provenance,
    StageTimings,
};
pub use resolve::{ColBinding, Resolution, Resolver};
