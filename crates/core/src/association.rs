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

use crate::engine::scan_sharded;
use crate::error::AuditError;
use crate::report::{AuditReport, Finding};
use dq_logic::{Atom, CompiledRuleSet, Formula, RecordView, Rule, RuleSet, NONE_CODE};
use dq_mining::apriori::item_parts;
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
    /// This is the **compiled** scan: the mined rules are lowered once
    /// into [`CompiledRuleSet`] violation programs over the miner's
    /// coded item space (see [`association_rule_set`]) and every record
    /// is checked through a [`RecordView`] of its coded cells — flat
    /// guard-first branch programs instead of the per-rule
    /// `contains_all` item walk. The scan shards into one row chunk per
    /// worker ([`AssociationAuditConfig::threads`]); rules are
    /// evaluated in mined (confidence-descending) order within each
    /// record, so scores accumulate in exactly the reference order and
    /// the report is byte-identical to [`AssociationAuditor::detect_reference`]
    /// at every thread count.
    pub fn detect(&self, miner: &Apriori, table: &Table) -> AuditReport {
        let rules = association_rule_set(miner);
        let compiled = CompiledRuleSet::compile(&rules, table.n_cols());
        let index = GuardIndex::build(&compiled, table.n_cols());
        let (findings, record_confidence) =
            scan_sharded(self.config.threads.pool(), table, 0, |chunk| {
                self.scan_chunk(miner, &compiled, &index, chunk)
            });
        AuditReport::new(findings, record_confidence, self.config.min_confidence)
    }

    /// Reference detection: the pre-compilation record-at-a-time loop,
    /// walking every mined rule through [`Apriori::violated`]'s
    /// interpreted item matching. Kept — serial and unoptimized on
    /// purpose — as the ground truth the audit-program equivalence
    /// suite pins [`AssociationAuditor::detect`] against; no user path
    /// runs it.
    pub fn detect_reference(&self, miner: &Apriori, table: &Table) -> AuditReport {
        let mut findings = Vec::new();
        let mut record_confidence = vec![0.0f64; table.n_rows()];
        let mut record: Vec<Value> = Vec::with_capacity(table.n_cols());
        let mut coded = Vec::with_capacity(table.n_cols());
        #[allow(clippy::needless_range_loop)] // row indexes the table, not just the vec
        for row in 0..table.n_rows() {
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
            record_confidence[row] = score;
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
        AuditReport::new(findings, record_confidence, self.config.min_confidence)
    }

    /// Scan one row chunk through the compiled violation programs.
    ///
    /// Dispatch is guard-first: a record only walks the rules in the
    /// [`GuardIndex`] buckets its own codes select (entering each fused
    /// program one op past the already-verified guard), so the per-row
    /// cost is proportional to the matching rules, not the whole rule
    /// base. The violated indices are then re-sorted into mined order,
    /// so the Sum accumulation and the strict-greater best-rule
    /// selection replay the reference loop exactly (the rules are
    /// confidence-sorted, so the first violated rule is the best one
    /// in both).
    fn scan_chunk(
        &self,
        miner: &Apriori,
        compiled: &CompiledRuleSet,
        index: &GuardIndex,
        chunk: &RowSlice<'_>,
    ) -> (Vec<Finding>, Vec<f64>) {
        let table = chunk.table();
        let rules = miner.rules();
        let mut findings = Vec::new();
        let mut confidences = Vec::with_capacity(chunk.len());
        let mut record: Vec<Value> = Vec::with_capacity(table.n_cols());
        let mut coded = Vec::with_capacity(table.n_cols());
        let mut view = RecordView::new(table.n_cols());
        let mut violated: Vec<u32> = Vec::new();
        for row in chunk.rows() {
            table.row_into(row, &mut record);
            miner.code_record_into(&record, &mut coded);
            for (a, c) in coded.iter().enumerate() {
                view.sync_nominal(a, c.map(|it| item_parts(it).1));
            }
            violated.clear();
            for (a, &code) in view.codes().iter().enumerate() {
                if code == NONE_CODE {
                    continue;
                }
                if let Some(bucket) = index.bucket(a, code) {
                    for &i in bucket {
                        if compiled.violates_rule_view_postguard(i as usize, &view) {
                            violated.push(i);
                        }
                    }
                }
            }
            for &i in &index.unguarded {
                if compiled.violates_rule_view(i as usize, &view) {
                    violated.push(i);
                }
            }
            // Buckets surface rules attribute-major; mined order is what
            // the f64 Sum fold (and the reference) accumulate in.
            violated.sort_unstable();
            let mut score = 0.0f64;
            let mut best: Option<&AssociationRule> = None;
            for &i in &violated {
                let rule = &rules[i as usize];
                match self.config.scoring {
                    AssociationScoring::Sum => score += rule.confidence,
                    AssociationScoring::Max => score = score.max(rule.confidence),
                }
                if best.is_none_or(|b| rule.confidence > b.confidence) {
                    best = Some(rule);
                }
            }
            let score = score.min(1.0);
            confidences.push(score);
            if score >= self.config.min_confidence {
                if let Some(rule) = best {
                    findings.push(Finding {
                        row,
                        attr: rule.attr,
                        observed: record[rule.attr],
                        proposed: proposed_value(table, rule.attr, rule.code, record[rule.attr]),
                        confidence: score,
                        support: rule.support,
                    });
                }
            }
        }
        (findings, confidences)
    }
}

/// Rules bucketed by their nominal guard — the `(attr, code)` equality
/// every mined antecedent opens with ([`CompiledRuleSet::guard_nominal`]).
/// A record can only violate a rule whose guard cell it actually
/// carries, so the scan looks up one bucket per non-NULL code instead
/// of testing the guard of every rule in the base.
struct GuardIndex {
    /// `buckets[attr]`: guard codes (ascending) paired with the
    /// ascending indices of the rules they select.
    buckets: Vec<Vec<(u32, Vec<u32>)>>,
    /// Rules without a nominal guard (degenerate premises) — walked on
    /// every record through the full violation program.
    unguarded: Vec<u32>,
}

impl GuardIndex {
    fn build(compiled: &CompiledRuleSet, n_attrs: usize) -> GuardIndex {
        let mut buckets: Vec<Vec<(u32, Vec<u32>)>> = vec![Vec::new(); n_attrs];
        let mut unguarded = Vec::new();
        for i in 0..compiled.len() {
            match compiled.guard_nominal(i) {
                Some((attr, code)) if attr < n_attrs => {
                    let bucket = &mut buckets[attr];
                    match bucket.binary_search_by_key(&code, |&(c, _)| c) {
                        Ok(pos) => bucket[pos].1.push(i as u32),
                        Err(pos) => bucket.insert(pos, (code, vec![i as u32])),
                    }
                }
                _ => unguarded.push(i as u32),
            }
        }
        GuardIndex { buckets, unguarded }
    }

    /// The rules guarded by `attr = code`, if any.
    #[inline]
    fn bucket(&self, attr: usize, code: u32) -> Option<&[u32]> {
        let bucket = &self.buckets[attr];
        bucket.binary_search_by_key(&code, |&(c, _)| c).ok().map(|pos| bucket[pos].1.as_slice())
    }
}

/// Lower the mined rule base into a [`dq_logic`] rule set over the
/// miner's **coded item space**: each [`AssociationRule`] becomes
/// `∧ᵢ (attrᵢ = codeᵢ) → (attr = code ∨ attr isnull)`, whose violation
/// (premise holds, consequent fails) is exactly [`Apriori::violated`]'s
/// predicate — antecedent matched, consequent attribute non-NULL and
/// carrying a different code. Rule order is preserved (mined,
/// confidence-descending), which scoring relies on.
///
/// The formulae read a record whose cells are the miner's codes
/// (`Value::Nominal(code)` / NULL) — e.g. a [`RecordView`] synced
/// through [`RecordView::sync_nominal`] — *not* the raw table values:
/// binned ordered attributes live here as their bin codes.
pub fn association_rule_set(miner: &Apriori) -> RuleSet {
    let rules = miner
        .rules()
        .iter()
        .map(|r| {
            let premise = Formula::And(
                r.antecedent
                    .iter()
                    .map(|&it| {
                        let (attr, code) = item_parts(it);
                        Formula::Atom(Atom::EqConst { attr, value: Value::Nominal(code) })
                    })
                    .collect(),
            );
            let consequent = Formula::Or(vec![
                Formula::Atom(Atom::EqConst { attr: r.attr, value: Value::Nominal(r.code) }),
                Formula::Atom(Atom::IsNull { attr: r.attr }),
            ]);
            Rule::new(premise, consequent)
        })
        .collect();
    RuleSet::from_rules(rules)
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
        assert!(sum_report.record_confidence[deviant] >= max_report.record_confidence[deviant]);
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

    /// The table with NULLs and an out-of-label code mixed in.
    fn messy_table() -> Table {
        let mut t = table();
        t.push_row(&[Value::Nominal(0), Value::Null, Value::Nominal(1)]).unwrap();
        t.push_row(&[Value::Null, Value::Nominal(1), Value::Null]).unwrap();
        t.set(3, 1, Value::Nominal(77)).unwrap(); // out-of-label code
        t
    }

    #[test]
    fn compiled_detect_is_byte_identical_to_reference() {
        let t = messy_table();
        for scoring in [AssociationScoring::Sum, AssociationScoring::Max] {
            let auditor = AssociationAuditor::new(AssociationAuditConfig {
                scoring,
                ..AssociationAuditConfig::default()
            });
            let (miner, _) = auditor.run(&t).unwrap();
            let reference = auditor.detect_reference(&miner, &t);
            for threads in [1, 2, 4] {
                let par = AssociationAuditor::new(AssociationAuditConfig {
                    scoring,
                    threads: threads.into(),
                    ..AssociationAuditConfig::default()
                });
                let report = par.detect(&miner, &t);
                assert_eq!(report.findings, reference.findings, "threads={threads}");
                for (a, b) in report.record_confidence.iter().zip(&reference.record_confidence) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn lowered_rule_set_matches_the_miner_order() {
        let t = table();
        let auditor = AssociationAuditor::new(AssociationAuditConfig::default());
        let (miner, _) = auditor.run(&t).unwrap();
        let rules = association_rule_set(&miner);
        assert_eq!(rules.len(), miner.rules().len());
    }
}
