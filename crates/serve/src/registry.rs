//! Multi-tenant project registry: per-project state, single-flight
//! analysis locks, and source loading that reads only what changed.
//!
//! A *project* is a registered (name, source directory, optional schema
//! file) triple. Each tenant keeps a [`SourceMemo`], the loader of
//! `cfinder <dir>` kept across requests: every analysis walks the
//! directory afresh (so added, deleted and renamed files are seen) and
//! `stat`s each file, but re-reads only a file whose stamp — length,
//! modification and status-change times in nanoseconds, inode, device —
//! changed, or whose last read was racy: within
//! [`cfinder_core::fsio::RACY_MARGIN`] of its last modification, where a
//! same-size edit in the same file-system clock tick could leave the
//! stamp as it was. The declared schema is kept decoded under its own
//! stamp. That keeps mid-round source mutation safe, and the incremental
//! cache makes the rest of a warm run cheap (it parses 0 files). A
//! one-shot `cfinder <dir>` loads through a fresh memo, which trusts
//! nothing, so the two read the same bytes. Each project carries one
//! **single-flight mutex**: two concurrent analyze requests for the same
//! tenant serialize instead of racing the cache, the memo and each
//! other's diff baseline; different tenants proceed in parallel.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use cfinder_core::{CFinderOptions, Limits, SourceMemo};
use parking_lot::{Mutex, RwLock};

/// The configuration an analysis ran under.
pub type Config = (CFinderOptions, Limits);

/// Mutable per-project state, guarded by the single-flight lock.
pub struct ProjectState {
    /// The tenant's sources and declared schema as last loaded; every
    /// analysis brings it up to date first.
    pub sources: SourceMemo,
    /// The configuration of the previous analysis and the missing
    /// constraints it reported, rendered: the `diff` baseline of a later
    /// analysis under the same configuration.
    pub baseline: Option<(Config, Vec<String>)>,
    /// Chrome trace of the most recent analyzing request. Only the
    /// latest is retained (bounded memory per tenant); served by the
    /// `trace` command.
    pub last_trace: Option<String>,
}

/// One registered tenant.
pub struct Project {
    /// Tenant name (the `project` field of request frames).
    pub name: String,
    /// Source directory, walked on every analysis; only files whose
    /// stamp changed since they were read are read again (the optional
    /// declared-schema file likewise, which only the memo in
    /// [`ProjectState::sources`] needs to know).
    pub dir: PathBuf,
    /// Single-flight lock: holds [`ProjectState`] and serializes
    /// analyses of this project.
    pub flight: Mutex<ProjectState>,
    /// Completed analyses (any command that ran the pipeline). Bumped
    /// under the flight lock, read without it, so `stats` never waits
    /// for a running analysis.
    pub analyses: AtomicU64,
}

impl Project {
    /// A tenant with no analyses yet, and nothing loaded.
    pub fn new(name: &str, dir: PathBuf, schema_path: Option<PathBuf>) -> Self {
        Project {
            name: name.to_string(),
            flight: Mutex::new(ProjectState {
                sources: SourceMemo::new(dir.clone(), name, schema_path),
                baseline: None,
                last_trace: None,
            }),
            dir,
            analyses: AtomicU64::new(0),
        }
    }
}

/// The tenant table. Registration replaces (a re-register points the
/// name at a new directory and resets its diff baseline); lookups hand
/// out `Arc`s so a concurrent re-register never invalidates an in-flight
/// analysis.
#[derive(Default)]
pub struct Registry {
    projects: RwLock<BTreeMap<String, Arc<Project>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Publishes `project` under its name, replacing any tenant of that
    /// name.
    pub fn register(&self, project: Project) -> Arc<Project> {
        let project = Arc::new(project);
        self.projects.write().insert(project.name.clone(), project.clone());
        project
    }

    /// Looks up a tenant by name.
    pub fn get(&self, name: &str) -> Option<Arc<Project>> {
        self.projects.read().get(name).cloned()
    }

    /// Snapshot of every registered project, name-ordered.
    pub fn all(&self) -> Vec<Arc<Project>> {
        self.projects.read().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::Ordering;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("cfinder-serve-registry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_is_deterministic_and_named_after_the_tenant() {
        let dir = tmp("load");
        fs::create_dir_all(dir.join("sub")).unwrap();
        fs::write(dir.join("b.py"), "x = 1\n").unwrap();
        fs::write(dir.join("a.py"), "y = 2\n").unwrap();
        fs::write(dir.join("sub/c.py"), "z = 3\n").unwrap();
        fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let registry = Registry::new();
        let project = registry.register(Project::new("tenant-a", dir.clone(), None));
        let mut state = project.flight.lock();
        assert_eq!(state.sources.load(), Ok(3));
        let app = state.sources.app();
        assert_eq!(app.name, "tenant-a");
        let paths: Vec<&str> = app.files.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, ["a.py", "b.py", "sub/c.py"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_failures_are_diagnostic_strings() {
        let dir = tmp("empty");
        let registry = Registry::new();
        let project = registry.register(Project::new("empty", dir.clone(), None));
        let err = project.flight.lock().sources.load().unwrap_err();
        assert!(err.contains("no .py files"), "{err}");
        let gone = registry.register(Project::new("gone", dir.join("missing"), None));
        assert!(gone.flight.lock().sources.load().is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reregister_replaces_and_resets_the_baseline() {
        let dir = tmp("rereg");
        fs::write(dir.join("a.py"), "x = 1\n").unwrap();
        let registry = Registry::new();
        let first = registry.register(Project::new("p", dir.clone(), None));
        first.analyses.store(7, Ordering::Relaxed);
        let second = registry.register(Project::new("p", dir.clone(), None));
        assert_eq!(second.analyses.load(Ordering::Relaxed), 0);
        assert_eq!(registry.all().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
