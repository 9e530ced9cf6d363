//! # data-audit — data mining-based data quality tools
//!
//! Umbrella crate for the workspace reproducing *Systematic Development
//! of Data Mining-Based Data Quality Tools* (Luebbers, Grimmer, Jarke;
//! VLDB 2003). It re-exports every subsystem under one roof so that
//! examples, integration tests and downstream users can depend on a
//! single crate:
//!
//! * [`table`] — typed columnar tables with nominal/numeric/date
//!   domains and NULLs, chunked row-range views for sharded scans, the
//!   `BatchSource` streaming abstraction and its chunked CSV reader;
//! * [`exec`] — a std-only scoped worker pool with deterministic
//!   input-order results plus the shared `Parallelism` knob, the
//!   execution substrate of every parallel phase;
//! * [`stats`] — confidence intervals, entropy measures, distributions,
//!   evaluation matrices;
//! * [`logic`] — TDG formulae/rules, satisfiability, natural rule sets;
//! * [`bayes`] — Bayesian networks for multivariate start distributions;
//! * [`tdg`] — the rule-pattern based artificial test data generator;
//! * [`pollute`] — controlled data corruption with pollution logs;
//! * [`mining`] — C4.5 decision trees and baseline classifiers;
//! * [`core`] — the data auditing tool: error confidence, the multiple
//!   classification/regression auditor, corrections, structure models;
//! * [`serve`] — the long-lived audit daemon: a std-only HTTP/1.1
//!   server keeping persisted models resident, routing requests by
//!   model name or schema fingerprint;
//! * [`job`] — checkpoint/resume for streaming jobs: the crash-safe
//!   `dq-job v1` journal, commit-point crash knobs, and the
//!   resumable-output plumbing behind `dq … --checkpoint/--resume`;
//! * [`quis`] — a synthetic QUIS-like engine-composition table;
//! * [`eval`] — the test environment: generate → pollute → audit →
//!   score, plus canned experiments for every figure/table of the
//!   paper.
//!
//! ## Quick start
//!
//! ```
//! use data_audit::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // 1. Describe a relation and generate rule-structured test data.
//! let schema = SchemaBuilder::new()
//!     .nominal("color", ["red", "green", "blue", "grey"])
//!     .nominal("shape", ["disc", "drum", "vent"])
//!     .build()
//!     .unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//! let generated = TestDataGenerator::new(schema, 6, 600).generate(&mut rng);
//!
//! // 2. Corrupt it in a controlled, logged way.
//! let (dirty, log) = pollute(&generated.clean, &PollutionConfig::standard(), &mut rng);
//!
//! // 3. Audit the dirty table; detections can be scored against the log.
//! let (model, report) = Auditor::default().run(&dirty).unwrap();
//! assert_eq!(report.n_rows(), dirty.n_rows());
//! assert!(model.n_rules() < dirty.n_rows());
//! ```
//!
//! ## Workspace layout
//!
//! Each subsystem is its own crate under `crates/` (package names carry
//! a `dq_` prefix: `crates/table` is `dq_table`, and so on); this crate
//! is the root package. The dependency DAG between the members:
//!
//! ```text
//! table ──┬────────────┬──────────┬─────────┬──────────────────┐
//!         stats        logic      bayes     mining             │
//!         │  │          │  │        │        │ (stats)         │
//!         │  └──────────┼──┼────────┼────────┤                 │
//!         │   pollute ──┘  └── tdg ─┘        └── core (exec)   │
//!         │      │          (exec)                │  │         │
//!         └──── quis ──────────┴─── eval (exec) ──┘  serve ────┘
//!                          (+ the `repro` bin)      (exec)
//! ```
//!
//! In words: `stats`, `logic`, `bayes` and `mining` build directly on
//! `table`; `tdg` combines `logic`/`stats`/`bayes`; `pollute` needs
//! `stats`; `core` needs `mining`/`stats` (structure induction fans
//! out one classifier per attribute, deviation detection shards the
//! record scan into row chunks); `serve` wraps `core`'s resident audit
//! engine in a std-only HTTP daemon; `quis` composes
//! `logic`/`pollute`/`stats`; `eval` sits on top of everything below
//! it and ships the `repro` binary that regenerates the paper's
//! figures. `exec` itself is std-only and depends on nothing: it
//! supplies the shared [`exec::Parallelism`] knob (explicit count >
//! `DQ_THREADS` > cores) and worker pool to `tdg`, `core`, `serve`,
//! `eval` and the CLI. The `dq_fault` crate, the chaos suite's fault
//! injection (see the README's "Fault tolerance" section), is a
//! dev-dependency only and not re-exported. The `rand`/`proptest`
//! dependencies resolve to offline, API-compatible shims under
//! `shims/` because the build environment has no crates.io access.
//!
//! The tier-1 verification for the whole workspace is:
//!
//! ```text
//! cargo build --release && cargo test -q
//! ```
//!
//! See `README.md` for the same map plus per-crate one-liners.

pub use dq_bayes as bayes;
pub use dq_core as core;
pub use dq_eval as eval;
pub use dq_exec as exec;
pub use dq_job as job;
pub use dq_logic as logic;
pub use dq_mining as mining;
pub use dq_pollute as pollute;
pub use dq_quis as quis;
pub use dq_serve as serve;
pub use dq_stats as stats;
pub use dq_table as table;
pub use dq_tdg as tdg;

/// One-stop imports for examples and applications.
///
/// Everything a typical audit touches is re-exported flat: schema and
/// table building (`SchemaBuilder`, `Table`, `Value`), rule logic
/// (`parse_rule`, `Formula`), generation and pollution
/// (`TestDataGenerator`, `pollute`), auditing (`Auditor`,
/// `AuditReport`, `propose_corrections`) and scoring
/// (`ConfusionMatrix`, `TestEnvironment`).
///
/// ```
/// use data_audit::prelude::*;
///
/// // Rule logic and schema building come from one import.
/// let schema = SchemaBuilder::new()
///     .nominal("color", ["red", "green", "blue"])
///     .nominal("shape", ["disc", "drum", "vent"])
///     .build()
///     .unwrap();
/// let rule: Rule = parse_rule(&schema, "color = red -> shape = disc").unwrap();
/// assert_eq!(rule.render(&schema), "color = red -> shape = disc");
///
/// // Auditing types are configured through the same prelude.
/// let auditor = Auditor::new(AuditConfig::default());
/// let table = Table::new(schema.clone());
/// assert_eq!(table.n_rows(), 0);
/// let _ = (auditor, PollutionConfig::standard(), InducerKind::default());
/// ```
pub mod prelude {
    pub use dq_core::{
        apply_corrections, corrections_to_csv, propose_corrections, AuditConfig, AuditEngine,
        AuditReport, Auditor, Correction, Finding, StructureModel,
    };
    pub use dq_eval::{Scale, Series, TestEnvironment};
    pub use dq_exec::{Parallelism, WorkerPool};
    pub use dq_logic::{parse_formula, parse_rule, Atom, Formula, Rule, RuleSet};
    pub use dq_mining::InducerKind;
    pub use dq_pollute::{pollute, Polluter, PollutionConfig, PollutionLog, PollutionStep};
    pub use dq_stats::{ConfusionMatrix, CorrectionMatrix, DistributionSpec};
    pub use dq_table::{
        read_csv, read_schema, render_schema, write_csv, write_schema, AttrType, Attribute,
        BatchSource, CsvChunkReader, CsvWriter, ReplaySource, Schema, SchemaBuilder, Table, Value,
    };
    pub use dq_tdg::{GeneratedBenchmark, StartDistributions, TestDataGenerator};
}
