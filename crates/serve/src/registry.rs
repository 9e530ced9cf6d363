//! The model registry: every persisted model the server keeps resident.
//!
//! `dq serve` is the paper's asynchronous-auditing story turned into a
//! daemon: structure induction ran offline (`dq induce`), and the
//! resulting `.dqm` artifacts are loaded **once** at startup into
//! [`AuditEngine`]s — models and their flat trees resident —
//! then shared read-only across every request thread. The registry
//! owns that collection and answers the routing question: which engine
//! does this request belong to, by model name or by the 16-hex schema
//! fingerprint the model embeds?
//!
//! On-disk layout is pairwise: each `<name>.dqm` model sits next to
//! the `<name>.dqs` schema it was induced against (the layout
//! `dq generate`/`dq induce` already produce). Load order is sorted by
//! name so startup is deterministic; duplicate names and duplicate
//! schema fingerprints are startup errors, not first-request
//! surprises.

use crate::ServeError;
use dq_core::AuditEngine;
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-model service counters, updated lock-free by request threads
/// and reported at `GET /stats`.
#[derive(Debug, Default)]
pub struct ModelStats {
    /// Requests routed to this model (every outcome included).
    pub requests: AtomicU64,
    /// Records audited across those requests.
    pub records: AtomicU64,
    /// Violations (report findings) detected.
    pub violations: AtomicU64,
    /// Requests that ended in an error response (4xx/5xx).
    pub errors: AtomicU64,
}

impl ModelStats {
    /// A `(requests, records, violations, errors)` snapshot.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.records.load(Ordering::Relaxed),
            self.violations.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }
}

/// One resident model: its name (the file stem), its engine, its
/// counters.
#[derive(Debug)]
pub struct ModelEntry {
    /// The model name requests address it by (`<name>.dqm`'s stem).
    pub name: String,
    /// The resident detection engine.
    pub engine: AuditEngine,
    /// Service counters.
    pub stats: ModelStats,
}

impl ModelEntry {
    /// The schema fingerprint requests may route by, in the canonical
    /// 16-hex form.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.engine.fingerprint())
    }
}

/// The resident model collection, indexed by name and by schema
/// fingerprint.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    entries: Vec<Arc<ModelEntry>>,
    by_name: HashMap<String, usize>,
    by_fingerprint: HashMap<u64, usize>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Register `engine` under `name`. Duplicate names and duplicate
    /// schema fingerprints are rejected: a fingerprint shared by two
    /// models would make fingerprint routing ambiguous.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        engine: AuditEngine,
    ) -> Result<(), ServeError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(ServeError::Registry(format!("duplicate model name `{name}`")));
        }
        let fp = engine.fingerprint();
        if let Some(&idx) = self.by_fingerprint.get(&fp) {
            return Err(ServeError::Registry(format!(
                "schema fingerprint {fp:016x} of model `{name}` collides with model `{}` — \
                 fingerprint routing would be ambiguous",
                self.entries[idx].name
            )));
        }
        let idx = self.entries.len();
        self.by_name.insert(name.clone(), idx);
        self.by_fingerprint.insert(fp, idx);
        self.entries.push(Arc::new(ModelEntry { name, engine, stats: ModelStats::default() }));
        Ok(())
    }

    /// Load every `<name>.dqm` / `<name>.dqs` pair under `dir`, sorted
    /// by name. A `.dqm` without its schema, an unreadable or garbled
    /// file, and duplicate names/fingerprints are all startup errors.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Self, ServeError> {
        Self::load_dir_with_threads(dir, dq_exec::Parallelism::serial())
    }

    /// [`ModelRegistry::load_dir`] with the per-request detection
    /// thread knob ([`AuditEngine::with_threads`], any
    /// [`Parallelism`](dq_exec::Parallelism) convertible):
    /// [`serial`](dq_exec::Parallelism::serial) — the `load_dir`
    /// default — serves each request on its handler thread; larger
    /// values shard each scan too.
    pub fn load_dir_with_threads(
        dir: impl AsRef<Path>,
        detect_threads: impl Into<dq_exec::Parallelism>,
    ) -> Result<Self, ServeError> {
        let dir = dir.as_ref();
        let detect_threads = detect_threads.into();
        let at = |e: &dyn std::fmt::Display| format!("{}: {e}", dir.display());
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| ServeError::Registry(at(&e)))? {
            let path = entry.map_err(|e| ServeError::Registry(at(&e)))?.path();
            if path.extension().and_then(|x| x.to_str()) == Some("dqm") {
                match path.file_stem().and_then(|s| s.to_str()) {
                    Some(stem) => names.push(stem.to_string()),
                    None => {
                        return Err(ServeError::Registry(format!(
                            "{}: model file name is not valid UTF-8",
                            path.display()
                        )))
                    }
                }
            }
        }
        if names.is_empty() {
            return Err(ServeError::Registry(format!(
                "{}: no .dqm model files found",
                dir.display()
            )));
        }
        names.sort();
        let mut registry = ModelRegistry::new();
        for name in names {
            let model_path = dir.join(format!("{name}.dqm"));
            let schema_path = dir.join(format!("{name}.dqs"));
            let fail = |path: &Path, e: &dyn std::fmt::Display| {
                ServeError::Registry(format!("{}: {e}", path.display()))
            };
            let schema_file = File::open(&schema_path).map_err(|e| fail(&schema_path, &e))?;
            let schema = dq_table::read_schema(BufReader::new(schema_file))
                .map_err(|e| fail(&schema_path, &e))?;
            let engine = AuditEngine::load_from_path(schema, &model_path)
                .map_err(|e| fail(&model_path, &e))?
                .with_threads(detect_threads);
            registry.insert(name, engine)?;
        }
        Ok(registry)
    }

    /// Resolve a request's model key: the model name, or the schema
    /// fingerprint as 16 hex digits.
    pub fn resolve(&self, key: &str) -> Option<&Arc<ModelEntry>> {
        if let Some(&idx) = self.by_name.get(key) {
            return Some(&self.entries[idx]);
        }
        if key.len() == 16 {
            if let Ok(fp) = u64::from_str_radix(key, 16) {
                if let Some(&idx) = self.by_fingerprint.get(&fp) {
                    return Some(&self.entries[idx]);
                }
            }
        }
        None
    }

    /// The resident models, in load (name) order.
    pub fn entries(&self) -> &[Arc<ModelEntry>] {
        &self.entries
    }

    /// Number of resident models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no model is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::Auditor;
    use dq_table::{SchemaBuilder, Table, Value};

    fn engine(labels: [&str; 2]) -> AuditEngine {
        let schema =
            SchemaBuilder::new().nominal("a", labels).nominal("b", ["x", "y"]).build().unwrap();
        let mut t = Table::new(schema);
        for i in 0..200u32 {
            let c = i % 2;
            t.push_row(&[Value::Nominal(c), Value::Nominal(c)]).unwrap();
        }
        let model = Auditor::default().induce(&t).unwrap();
        AuditEngine::new(model, t.schema().clone())
    }

    #[test]
    fn resolves_by_name_and_fingerprint() {
        let mut reg = ModelRegistry::new();
        let e = engine(["p", "q"]);
        let fp = format!("{:016x}", e.fingerprint());
        reg.insert("first", e).unwrap();
        reg.insert("second", engine(["r", "s"])).unwrap();
        assert_eq!(reg.resolve("first").unwrap().name, "first");
        assert_eq!(reg.resolve(&fp).unwrap().name, "first");
        assert_eq!(reg.resolve("second").unwrap().name, "second");
        assert!(reg.resolve("third").is_none());
        assert!(reg.resolve("0000000000000000").is_none());
    }

    #[test]
    fn duplicate_name_is_rejected() {
        let mut reg = ModelRegistry::new();
        reg.insert("m", engine(["p", "q"])).unwrap();
        let err = reg.insert("m", engine(["r", "s"])).unwrap_err();
        assert!(err.to_string().contains("duplicate model name `m`"), "{err}");
    }

    #[test]
    fn duplicate_fingerprint_is_rejected() {
        // Two models over byte-identical schemas share a fingerprint.
        let mut reg = ModelRegistry::new();
        reg.insert("m1", engine(["p", "q"])).unwrap();
        let err = reg.insert("m2", engine(["p", "q"])).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("collides with model `m1`") && text.contains("fingerprint"),
            "{text}"
        );
        // The registry still answers for the model that won.
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.resolve("m1").unwrap().name, "m1");
    }
}
