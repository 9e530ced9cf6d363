//! # dq-core — the data auditing tool (the paper's contribution)
//!
//! This crate assembles the data auditing tool of *Systematic
//! Development of Data Mining-Based Data Quality Tools* (Luebbers,
//! Grimmer, Jarke; VLDB 2003):
//!
//! * [`confidence`] — the auditing-specific confidence machinery:
//!   **minInst** derivation from the user's minimal error confidence
//!   and the NULL extension of the error confidence (Defs. 7-9 proper
//!   live in `dq-stats`);
//! * [`auditor`] — the **multiple classification / regression
//!   approach**: one classifier per attribute, asynchronous structure
//!   induction and deviation detection, the structure model as
//!   probabilistic integrity constraints;
//! * [`engine`] — the `Sync`-shareable [`AuditEngine`]: a resident
//!   structure model (its compiled flat trees) answering concurrent
//!   detection requests, the substrate of `dq serve`;
//! * [`report`] — ranked findings with per-record overall error
//!   confidence (Def. 8);
//! * [`correction`] — proposed corrections from the highest-confidence
//!   classifier (sec. 5.3) and their application;
//! * [`association`] — the Hipp-style association-rule auditor used as
//!   the related-work comparator (sum-of-confidences scoring vs the
//!   paper's maximum).
//!
//! ```
//! use dq_core::{AuditConfig, Auditor};
//! use dq_table::{SchemaBuilder, Table, Value};
//!
//! // BRV = 404 → GBM = 901, with one deviation.
//! let schema = SchemaBuilder::new()
//!     .nominal("brv", ["404", "501"])
//!     .nominal("gbm", ["901", "911"])
//!     .build()
//!     .unwrap();
//! let mut table = Table::new(schema);
//! for _ in 0..1000 {
//!     table.push_row(&[Value::Nominal(0), Value::Nominal(0)]).unwrap();
//!     table.push_row(&[Value::Nominal(1), Value::Nominal(1)]).unwrap();
//! }
//! table.push_row(&[Value::Nominal(0), Value::Nominal(1)]).unwrap();
//!
//! let (model, report) = Auditor::default().run(&table).unwrap();
//! assert!(report.is_flagged(2000));
//! // Both classifiers flag the record (GBM deviates given BRV, and
//! // vice versa); the top finding is that record either way.
//! assert_eq!(report.findings[0].row, 2000);
//! ```

pub mod association;
pub mod auditor;
pub mod confidence;
pub mod correction;
pub mod engine;
pub mod error;
pub mod model_io;
pub mod report;

pub use association::{
    association_rule_set, AssociationAuditConfig, AssociationAuditor, AssociationScoring,
};
pub use auditor::{AttrModel, AuditConfig, Auditor, StructureModel};
pub use confidence::{min_instances_for_confidence, null_error_confidence};
pub use correction::{apply_corrections, corrections_to_csv, propose_corrections, Correction};
pub use engine::AuditEngine;
pub use error::AuditError;
pub use model_io::{parse_model, render_model};
pub use report::{AuditReport, Finding};
