//! The Hipp-style association-rule auditor — the related-work
//! comparator (sec. 7).
//!
//! "Hipp et al. use scalable algorithms for association rule induction
//! and define a scoring that rates deviations from these rules based
//! on the confidence of the violated rules." Their score *adds* the
//! confidences of all violated rules; the paper argues this addition
//! is "strictly speaking only valid if all rules predict values for
//! the same attributes" and takes the maximum instead. Both scorings
//! are available here so the comparison experiment can quantify the
//! difference.
//!
//! There is one scan, [`AssociationAuditor::detect`]: every record is
//! coded into the miner's item space and walked through the mined
//! rules in mined (confidence-descending) order by
//! [`Apriori::violated`]. Only `repro compare` runs this auditor and no
//! benchmark workload times it, so the scan is this plain walk rather
//! than a compiled dispatch.

use crate::engine::scan_sharded;
use crate::error::AuditError;
use crate::report::{AuditReport, Finding};
use dq_mining::{Apriori, AprioriConfig, AssociationRule};
use dq_table::{RowSlice, Table, Value};

/// How violated-rule confidences combine into a record score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssociationScoring {
    /// Hipp et al.: sum of violated confidences (clamped to 1 for the
    /// report's confidence scale).
    #[default]
    Sum,
    /// The paper's combination: maximum violated confidence.
    Max,
}

/// Configuration of the association auditor.
#[derive(Debug, Clone, Default)]
pub struct AssociationAuditConfig {
    /// Apriori mining parameters.
    pub apriori: AprioriConfig,
    /// Scoring mode.
    pub scoring: AssociationScoring,
    /// Records scoring at or above this are flagged.
    pub min_confidence: f64,
    /// Worker threads for the detection scan (the record loop shards
    /// into row chunks, like [`crate::Auditor::detect`]) — the shared
    /// [`Parallelism`](dq_exec::Parallelism) knob. The default
    /// [`AUTO`](dq_exec::Parallelism::AUTO) resolves to the available
    /// hardware parallelism (overridable via `DQ_THREADS`);
    /// [`serial`](dq_exec::Parallelism::serial) is the exact serial
    /// path. Results are identical at every thread count.
    pub threads: dq_exec::Parallelism,
}

/// The association-rule data auditor.
#[derive(Debug, Clone)]
pub struct AssociationAuditor {
    config: AssociationAuditConfig,
}

impl AssociationAuditor {
    /// An auditor with the given configuration (a zero `min_confidence`
    /// is promoted to the paper's 0.8 default).
    pub fn new(mut config: AssociationAuditConfig) -> Self {
        if config.min_confidence <= 0.0 {
            config.min_confidence = 0.8;
        }
        AssociationAuditor { config }
    }

    /// Mine rules from `table` and score every record against them.
    pub fn run(&self, table: &Table) -> Result<(Apriori, AuditReport), AuditError> {
        if table.is_empty() {
            return Err(AuditError::EmptyTable);
        }
        let miner = Apriori::mine(table, self.config.apriori.clone())
            .map_err(|source| AuditError::Induction { class_attr: 0, source })?;
        let report = self.detect(&miner, table);
        Ok((miner, report))
    }

    /// Score `table` against an already mined rule base.
    ///
    /// The scan shards into one row chunk per worker
    /// ([`AssociationAuditConfig::threads`]); within a record the rules
    /// are walked in mined order, so the Sum fold accumulates in one
    /// fixed order and the report is byte-identical at every thread
    /// count.
    pub fn detect(&self, miner: &Apriori, table: &Table) -> AuditReport {
        let (findings, _) = scan_sharded(self.config.threads.pool(), table, 0, |chunk| {
            (self.scan_chunk(miner, chunk), Vec::new())
        });
        AuditReport::new(findings, table.n_rows(), self.config.min_confidence)
    }

    /// Score one row chunk: code each record, fold the confidences of
    /// the rules it violates, and report the strongest violated rule
    /// of every record scoring at or above the threshold.
    fn scan_chunk(&self, miner: &Apriori, chunk: &RowSlice<'_>) -> Vec<Finding> {
        let table = chunk.table();
        let mut findings = Vec::new();
        let mut record: Vec<Value> = Vec::with_capacity(table.n_cols());
        let mut coded = Vec::with_capacity(table.n_cols());
        for row in chunk.rows() {
            table.row_into(row, &mut record);
            miner.code_record_into(&record, &mut coded);
            let mut score = 0.0f64;
            let mut best: Option<&AssociationRule> = None;
            for rule in miner.violated(&coded) {
                match self.config.scoring {
                    AssociationScoring::Sum => score += rule.confidence,
                    AssociationScoring::Max => score = score.max(rule.confidence),
                }
                if best.is_none_or(|b| rule.confidence > b.confidence) {
                    best = Some(rule);
                }
            }
            let score = score.min(1.0);
            if score >= self.config.min_confidence {
                if let Some(rule) = best {
                    findings.push(Finding {
                        row,
                        attr: rule.attr,
                        observed: record[rule.attr],
                        // Only nominal consequents map back to concrete
                        // cell values; binned consequents keep the
                        // observed value as a placeholder proposal.
                        proposed: proposed_value(table, rule.attr, rule.code, record[rule.attr]),
                        confidence: score,
                        support: rule.support,
                    });
                }
            }
        }
        findings
    }
}

fn proposed_value(table: &Table, attr: usize, code: u32, observed: Value) -> Value {
    match &table.schema().attr(attr).ty {
        dq_table::AttrType::Nominal { .. } => Value::Nominal(code),
        _ => observed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_table::SchemaBuilder;

    /// Two deterministic dependencies plus one deviation each.
    fn table() -> Table {
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .nominal("kbm", ["01", "02"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..400 {
            let b = (i % 2) as u32;
            t.push_row(&[Value::Nominal(b), Value::Nominal(b), Value::Nominal(b)]).unwrap();
        }
        // Deviation: brv=404 with gbm=911 *and* kbm=02 — violates two
        // rules at once (sum > max).
        t.push_row(&[Value::Nominal(0), Value::Nominal(1), Value::Nominal(1)]).unwrap();
        t
    }

    #[test]
    fn flags_violations() {
        let t = table();
        let auditor = AssociationAuditor::new(AssociationAuditConfig::default());
        let (_, report) = auditor.run(&t).unwrap();
        let deviant = t.n_rows() - 1;
        assert!(report.is_flagged(deviant));
        assert!(!report.is_flagged(0));
        assert_eq!(report.findings[0].row, deviant);
    }

    #[test]
    fn sum_scoring_saturates_max_does_not() {
        let t = table();
        let sum = AssociationAuditor::new(AssociationAuditConfig {
            scoring: AssociationScoring::Sum,
            ..AssociationAuditConfig::default()
        });
        let max = AssociationAuditor::new(AssociationAuditConfig {
            scoring: AssociationScoring::Max,
            ..AssociationAuditConfig::default()
        });
        let deviant = t.n_rows() - 1;
        let (_, sum_report) = sum.run(&t).unwrap();
        let (_, max_report) = max.run(&t).unwrap();
        // Multiple violated rules: the sum clamps to 1, the max stays
        // at the strongest single rule (< 1 on finite evidence… both
        // are ~1 here, but sum ≥ max always).
        let score = |r: &AuditReport| r.best_finding_for(deviant).unwrap().confidence;
        assert!(score(&sum_report) >= score(&max_report));
        assert!(max_report.is_flagged(deviant));
    }

    #[test]
    fn detect_reuses_mined_rules_on_fresh_data() {
        let t = table();
        let auditor = AssociationAuditor::new(AssociationAuditConfig::default());
        let (miner, _) = auditor.run(&t).unwrap();
        let mut fresh = Table::new(t.schema().clone());
        fresh.push_row(&[Value::Nominal(1), Value::Nominal(1), Value::Nominal(1)]).unwrap();
        fresh.push_row(&[Value::Nominal(1), Value::Nominal(0), Value::Nominal(1)]).unwrap();
        let report = auditor.detect(&miner, &fresh);
        assert!(!report.is_flagged(0));
        assert!(report.is_flagged(1));
        let f = report.best_finding_for(1).unwrap();
        assert_eq!(f.attr, 1);
        assert_eq!(f.proposed, Value::Nominal(1));
    }

    #[test]
    fn empty_table_errors() {
        let t = table();
        let empty = Table::new(t.schema().clone());
        let auditor = AssociationAuditor::new(AssociationAuditConfig::default());
        assert_eq!(auditor.run(&empty).unwrap_err(), AuditError::EmptyTable);
    }

    /// An oracle worked out by hand from row counts. Rows with `x = 0`
    /// (50 of them) carry `y = 0` in 25 and `z = 0` in 21; a full
    /// factorial over `x ∈ {1,2,3}`, `y`, `z` keeps every other pair
    /// rule below the 0.4 mining threshold or satisfied by the deviant
    /// row `(0, 1, 1)`. That row therefore violates exactly
    /// `x=0 → y=0` (confidence 25/50) and `x=0 → z=0` (21/50).
    #[test]
    fn scores_match_confidences_worked_out_by_hand() {
        let labels = ["0", "1", "2", "3"];
        let schema =
            SchemaBuilder::new().nominal("x", labels).nominal("y", labels).nominal("z", labels);
        let mut t = Table::new(schema.build().unwrap());
        let mut push = |x: u32, y: u32, z: u32| {
            t.push_row(&[Value::Nominal(x), Value::Nominal(y), Value::Nominal(z)]).unwrap();
        };
        for x in 1..4 {
            for y in 0..4 {
                for z in 0..4 {
                    push(x, y, z);
                }
            }
        }
        let block = [
            (0, 0, 21),
            (0, 2, 2),
            (0, 3, 2),
            (1, 2, 2),
            (1, 3, 2),
            (2, 1, 4),
            (2, 2, 3),
            (2, 3, 3),
            (3, 1, 4),
            (3, 2, 3),
            (3, 3, 3),
        ];
        for (y, z, n) in block {
            (0..n).for_each(|_| push(0, y, z));
        }
        push(0, 1, 1);
        let deviant = t.n_rows() - 1;
        let (c1, c2) = (25.0 / 50.0, 21.0 / 50.0);
        let apriori = AprioriConfig { min_confidence: 0.4, max_len: 2, ..AprioriConfig::default() };
        for (scoring, expected) in
            [(AssociationScoring::Sum, f64::min(1.0, c1 + c2)), (AssociationScoring::Max, c1)]
        {
            let auditor = AssociationAuditor::new(AssociationAuditConfig {
                apriori: apriori.clone(),
                scoring,
                min_confidence: 0.45,
                ..AssociationAuditConfig::default()
            });
            let (miner, report) = auditor.run(&t).unwrap();
            let mut record = Vec::new();
            let mut coded = Vec::new();
            t.row_into(deviant, &mut record);
            miner.code_record_into(&record, &mut coded);
            let violated: Vec<(usize, u32, f64)> =
                miner.violated(&coded).map(|r| (r.attr, r.code, r.confidence)).collect();
            assert_eq!(violated, vec![(1, 0, c1), (2, 0, c2)], "the oracle table drifted");

            assert!(report.is_flagged(deviant));
            let f = report.best_finding_for(deviant).unwrap();
            assert_eq!((f.attr, f.observed, f.proposed), (1, Value::Nominal(1), Value::Nominal(0)));
            assert_eq!(f.confidence.to_bits(), expected.to_bits());
            assert_eq!(f.support, 25.0);
        }
    }
}
