//! # cfinder-serve
//!
//! `cfinder serve` — a crash-proof, multi-tenant analysis daemon
//! speaking newline-delimited JSON frames over stdio.
//!
//! One long-lived process keeps the incremental analysis cache warm and
//! answers `register` / `analyze` / `explain` / `diff` / `stats` /
//! `metrics` / `shutdown` requests for many projects concurrently. The
//! contract is that *every* frame gets exactly one answer — a result or
//! a typed error ([`protocol::ErrorCode`]) — and that no input, however
//! hostile (malformed JSON, oversized lines, panicking analyses, slow
//! projects, mid-request source edits, corrupt cache entries), can kill
//! the daemon or cross-contaminate tenants.
//!
//! ```text
//! → {"id":1,"cmd":"register","project":"shop","dir":"/repo/shop"}
//! ← {"id":1,"ok":true,"result":{"project":"shop","files":12}}
//! → {"id":2,"cmd":"analyze","project":"shop","deadline_ms":30000}
//! ← {"id":2,"ok":true,"result":{"app":"shop","missing":3,…,"stable_json":"…"}}
//! → not json
//! ← {"id":null,"ok":false,"error":{"code":"malformed-frame","message":"…"}}
//! ```
//!
//! See `DESIGN.md` §14 for the architecture, the full error-code table,
//! and the degradation ladder.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod daemon;
pub mod protocol;
pub mod queue;
pub mod registry;

pub use daemon::{serve, ServeConfig, ServeError, ServeSummary};
pub use protocol::{Command, ErrorCode, Request};
