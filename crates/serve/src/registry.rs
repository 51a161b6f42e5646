//! Multi-tenant project registry: per-project state, single-flight
//! analysis locks, and deterministic source loading.
//!
//! A *project* is a registered (name, source directory, optional schema
//! file) triple. The daemon re-reads sources from disk on every analyze
//! — that is what makes mid-round source mutation safe — and relies on
//! the incremental cache to make the re-read cheap (a warm run parses 0
//! files). Each project carries one **single-flight mutex**: two
//! concurrent analyze requests for the same tenant serialize instead of
//! racing the cache and each other's diff baseline; different tenants
//! proceed in parallel.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use cfinder_core::{load_app, AnalysisReport, AppSource, CFinderOptions, Limits};
use cfinder_schema::Schema;
use parking_lot::{Mutex, RwLock};

/// Mutable per-project state, guarded by the single-flight lock.
#[derive(Default)]
pub struct ProjectState {
    /// The previous analysis and the configuration it ran under: the
    /// `diff` baseline of a later analysis under the same configuration.
    pub last_report: Option<((CFinderOptions, Limits), AnalysisReport)>,
    /// Chrome trace of the most recent analyzing request. Only the
    /// latest is retained (bounded memory per tenant); served by the
    /// `trace` command.
    pub last_trace: Option<String>,
}

/// One registered tenant.
pub struct Project {
    /// Tenant name (the `project` field of request frames).
    pub name: String,
    /// Source directory, re-read on every analysis.
    pub dir: PathBuf,
    /// Optional declared-schema JSON file, re-read on every analysis.
    pub schema_path: Option<PathBuf>,
    /// Single-flight lock: holds [`ProjectState`] and serializes
    /// analyses of this project.
    pub flight: Mutex<ProjectState>,
    /// Completed analyses (any command that ran the pipeline). Bumped
    /// under the flight lock, read without it, so `stats` never waits
    /// for a running analysis.
    pub analyses: AtomicU64,
}

impl Project {
    /// A tenant with no analyses yet.
    pub fn new(name: &str, dir: PathBuf, schema_path: Option<PathBuf>) -> Self {
        Project {
            name: name.to_string(),
            dir,
            schema_path,
            flight: Mutex::new(ProjectState::default()),
            analyses: AtomicU64::new(0),
        }
    }

    /// Loads the project's sources and declared schema from disk through
    /// [`cfinder_core::load_app`], the loader of `cfinder <dir>`, so a
    /// daemon answer is byte-comparable to a one-shot run. Every failure
    /// is a diagnostic string (mapped to `project-unusable` by the
    /// daemon).
    pub fn load(&self) -> Result<(AppSource, Schema), String> {
        load_app(&self.dir, &self.name, self.schema_path.as_deref())
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

    /// Registers (or replaces) a project.
    pub fn register(&self, name: &str, dir: PathBuf, schema_path: Option<PathBuf>) -> Arc<Project> {
        let project = Arc::new(Project::new(name, dir, schema_path));
        self.projects.write().insert(name.to_string(), project.clone());
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
        let project = registry.register("tenant-a", dir.clone(), None);
        let (app, _) = project.load().unwrap();
        assert_eq!(app.name, "tenant-a");
        let paths: Vec<&str> = app.files.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, ["a.py", "b.py", "sub/c.py"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_failures_are_diagnostic_strings() {
        let dir = tmp("empty");
        let registry = Registry::new();
        let project = registry.register("empty", dir.clone(), None);
        let err = project.load().unwrap_err();
        assert!(err.contains("no .py files"), "{err}");
        let gone = registry.register("gone", dir.join("missing"), None);
        assert!(gone.load().is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reregister_replaces_and_resets_the_baseline() {
        let dir = tmp("rereg");
        fs::write(dir.join("a.py"), "x = 1\n").unwrap();
        let registry = Registry::new();
        let first = registry.register("p", dir.clone(), None);
        first.analyses.store(7, Ordering::Relaxed);
        let second = registry.register("p", dir.clone(), None);
        assert_eq!(second.analyses.load(Ordering::Relaxed), 0);
        assert_eq!(registry.all().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
