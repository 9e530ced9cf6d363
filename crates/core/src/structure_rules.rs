//! The structure model as **compiled integrity constraints**.
//!
//! Sec. 5.4: "in database terminology \[the structure model\] can be
//! seen as a set of integrity constraints that must hold with a given
//! probability". The classifier scan ([`crate::Auditor::detect`])
//! checks records through the flattened trees; this module is the
//! *rule* view of the same model — every root-to-leaf [`TreeRule`] is
//! lowered into a [`dq_logic::Rule`] (premise → class prescription),
//! passed through rulegen's [`CachedRule`] hygiene pass so the kept
//! constraints are pairwise compatible, and compiled once into
//! [`CompiledRuleSet`] violation programs. Detection then walks flat
//! guard-first branch programs over a [`RecordView`] instead of
//! interpreting `Formula` trees record-at-a-time.
//!
//! The interpreted walk is retained as
//! [`StructureRuleSet::detect_reference`] — the serial ground truth the
//! audit-program equivalence suite pins the compiled scan against at
//! every thread count (the PR 4/5 pattern).

use crate::auditor::{materialize_class, StructureModel};
use crate::confidence::null_error_confidence;
use crate::engine::scan_sharded;
use crate::report::{AuditReport, Finding};
use dq_logic::pairs::pair_conflict;
use dq_logic::{
    eval_rule, Atom, CachedRule, CompiledRuleSet, Formula, RecordView, Rule, RuleSet, RuleStatus,
};
use dq_mining::{ClassSpec, ConditionTest, TreeRule};
use dq_table::{Binning, RowSlice, Schema, Table, Value};

/// One kept integrity constraint with the leaf statistics that turn a
/// violation into a ranked finding.
#[derive(Debug, Clone)]
pub struct StructureRule {
    /// The attribute this rule prescribes a value for.
    pub class_attr: usize,
    /// The prescribed class code (nominal code or bin index).
    pub predicted: u32,
    /// The prescription materialized as a concrete cell value (the
    /// finding's proposed correction).
    pub proposed: Value,
    /// How the class attribute is coded (needed to score an observed
    /// cell against `counts`).
    pub spec: ClassSpec,
    /// Weighted class counts at the source leaf.
    pub counts: Vec<f64>,
    /// Training instances behind the rule.
    pub support: f64,
    /// The lowered logical rule (premise → class prescription).
    pub rule: Rule,
}

/// The structure model's rules, hygiene-filtered and compiled.
#[derive(Debug, Clone)]
pub struct StructureRuleSet {
    /// Kept rules in (model, leaf) order.
    pub rules: Vec<StructureRule>,
    /// Rules dropped by the pairwise-compatibility hygiene pass.
    pub dropped: usize,
    compiled: CompiledRuleSet,
    min_confidence: f64,
    level: f64,
    flag_nulls: bool,
}

impl StructureRuleSet {
    /// Lower `model` into logical rules, run rulegen's hygiene pass
    /// (greedy first-accepted-wins over the Def. 6 [`pair_conflict`],
    /// sharing the same [`CachedRule`] DNF machinery), and compile the
    /// survivors into violation programs.
    ///
    /// Rulegen's *strict* instance check is deliberately not applied:
    /// two models' rules routinely hold premises together on a corrupt
    /// record while prescribing incompatible repairs — that is the
    /// deviation the audit exists to flag, not a rule-base defect.
    pub fn compile(model: &StructureModel, schema: &Schema) -> StructureRuleSet {
        let cfg = model.config();
        let mut kept: Vec<StructureRule> = Vec::new();
        let mut accepted: Vec<CachedRule> = Vec::new();
        let mut dropped = 0usize;
        for m in &model.models {
            for tr in &m.rules {
                let rule = lower_rule(tr, m.class_attr, &m.spec, cfg.flag_nulls);
                let cached = CachedRule::new(schema, rule.clone());
                let conflicts = accepted.iter().any(|a| pair_conflict(schema, a, &cached));
                if conflicts {
                    dropped += 1;
                    continue;
                }
                accepted.push(cached);
                kept.push(StructureRule {
                    class_attr: m.class_attr,
                    predicted: tr.predicted,
                    proposed: materialize_class(schema, m.class_attr, &m.spec, tr.predicted),
                    spec: m.spec.clone(),
                    counts: tr.counts.clone(),
                    support: tr.support,
                    rule,
                });
            }
        }
        let set = RuleSet::from_rules(kept.iter().map(|r| r.rule.clone()).collect());
        let compiled = CompiledRuleSet::compile(&set, schema.len());
        StructureRuleSet {
            rules: kept,
            dropped,
            compiled,
            min_confidence: cfg.min_confidence,
            level: cfg.level,
            flag_nulls: cfg.flag_nulls,
        }
    }

    /// Number of kept rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rule survived.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The compiled violation programs (for inspection/tests).
    pub fn compiled(&self) -> &CompiledRuleSet {
        &self.compiled
    }

    /// Check every record against the compiled constraints.
    ///
    /// The scan shards into one row chunk per worker; within a record,
    /// rules are checked in kept order and scored exactly like
    /// [`StructureRuleSet::detect_reference`], so the report is
    /// byte-identical at every thread count.
    pub fn detect(&self, table: &Table, threads: impl Into<dq_exec::Parallelism>) -> AuditReport {
        let (findings, record_confidence) =
            scan_sharded(threads.into().pool(), table, 0, |chunk| self.scan_chunk(chunk));
        AuditReport::new(findings, record_confidence, self.min_confidence)
    }

    /// Reference detection: the record-at-a-time interpreted `Formula`
    /// walk ([`eval_rule`]), serial and unoptimized on purpose — the
    /// ground truth for the equivalence suite and the "before" side of
    /// the structure-rule benchmarks.
    pub fn detect_reference(&self, table: &Table) -> AuditReport {
        let mut findings = Vec::new();
        let mut record_confidence = Vec::with_capacity(table.n_rows());
        let mut record: Vec<Value> = Vec::with_capacity(table.n_cols());
        for row in 0..table.n_rows() {
            table.row_into(row, &mut record);
            let mut row_conf = 0.0f64;
            for sr in &self.rules {
                if eval_rule(&sr.rule, &record) != RuleStatus::Violated {
                    continue;
                }
                let confidence = self.violation_confidence(sr, &record[sr.class_attr]);
                row_conf = row_conf.max(confidence);
                if confidence >= self.min_confidence {
                    findings.push(Finding {
                        row,
                        attr: sr.class_attr,
                        observed: record[sr.class_attr],
                        proposed: sr.proposed,
                        confidence,
                        support: sr.support,
                    });
                }
            }
            record_confidence.push(row_conf);
        }
        AuditReport::new(findings, record_confidence, self.min_confidence)
    }

    /// Scan one row chunk through the compiled violation programs.
    fn scan_chunk(&self, chunk: &RowSlice<'_>) -> (Vec<Finding>, Vec<f64>) {
        let table = chunk.table();
        let mut findings = Vec::new();
        let mut confidences = Vec::with_capacity(chunk.len());
        let mut record: Vec<Value> = Vec::with_capacity(table.n_cols());
        let mut view = RecordView::new(table.n_cols());
        for row in chunk.rows() {
            table.row_into(row, &mut record);
            view.sync_all(&record);
            let mut row_conf = 0.0f64;
            for (i, sr) in self.rules.iter().enumerate() {
                if !self.compiled.violates_rule_view(i, &view) {
                    continue;
                }
                let confidence = self.violation_confidence(sr, &record[sr.class_attr]);
                row_conf = row_conf.max(confidence);
                if confidence >= self.min_confidence {
                    findings.push(Finding {
                        row,
                        attr: sr.class_attr,
                        observed: record[sr.class_attr],
                        proposed: sr.proposed,
                        confidence,
                        support: sr.support,
                    });
                }
            }
            confidences.push(row_conf);
        }
        (findings, confidences)
    }

    /// Error confidence of an observed cell against a violated rule's
    /// leaf distribution — the same Def. 8/9 arithmetic the classifier
    /// scan uses.
    fn violation_confidence(&self, sr: &StructureRule, observed: &Value) -> f64 {
        match sr.spec.code_of(observed) {
            Some(code) => dq_stats::error_confidence(&sr.counts, code as usize, self.level),
            None if self.flag_nulls => null_error_confidence(&sr.counts, self.level),
            None => 0.0,
        }
    }
}

impl crate::Auditor {
    /// Rule-view detection: compile `model`'s rules into violation
    /// programs (see [`StructureRuleSet::compile`]) and check every
    /// record, sharded across [`crate::AuditConfig::threads`] workers.
    pub fn detect_rules(&self, model: &StructureModel, table: &Table) -> AuditReport {
        StructureRuleSet::compile(model, table.schema()).detect(table, self.config.threads)
    }

    /// Serial interpreted ground truth for [`crate::Auditor::detect_rules`].
    pub fn detect_rules_reference(&self, model: &StructureModel, table: &Table) -> AuditReport {
        StructureRuleSet::compile(model, table.schema()).detect_reference(table)
    }
}

/// Lower one tree rule into `premise → class prescription`.
///
/// Premise: `Eq(code)` → `attr = #code`; `LessEq(t)` → `attr < t ∨
/// attr = t`; `Greater(t)` → `attr > t`. All atoms are NULL-strict, so
/// a record with a NULL base attribute never matches — the rule view's
/// documented difference from the tree scan, which distributes missing
/// values across branches.
///
/// Consequent: the prescribed class — a nominal code or, for binned
/// classes, the predicted bin's numeric interval over the raw cell.
/// When `flag_nulls` is off a NULL class cell satisfies the
/// prescription (audit-of-incompleteness disabled); when on, NULL
/// violates it and scores via the NULL error confidence.
fn lower_rule(tr: &TreeRule, class_attr: usize, spec: &ClassSpec, flag_nulls: bool) -> Rule {
    let premise = Formula::And(
        tr.conditions
            .iter()
            .map(|c| match c.test {
                ConditionTest::Eq(code) => {
                    Formula::Atom(Atom::EqConst { attr: c.attr, value: Value::Nominal(code) })
                }
                ConditionTest::LessEq(t) => less_eq(c.attr, t),
                ConditionTest::Greater(t) => {
                    Formula::Atom(Atom::GreaterConst { attr: c.attr, value: t })
                }
            })
            .collect(),
    );
    let prescription = match spec {
        ClassSpec::Nominal { .. } => {
            Formula::Atom(Atom::EqConst { attr: class_attr, value: Value::Nominal(tr.predicted) })
        }
        ClassSpec::Binned { binning } => bin_formula(class_attr, binning, tr.predicted),
    };
    let consequent = if flag_nulls {
        prescription
    } else {
        Formula::Or(vec![prescription, Formula::Atom(Atom::IsNull { attr: class_attr })])
    };
    Rule::new(premise, consequent)
}

/// `attr <= t` over NULL-strict `<`/`=` atoms.
fn less_eq(attr: usize, t: f64) -> Formula {
    Formula::Or(vec![
        Formula::Atom(Atom::LessConst { attr, value: t }),
        Formula::Atom(Atom::EqConst { attr, value: Value::Number(t) }),
    ])
}

/// The numeric interval of bin `bin` under `binning`, as a formula over
/// the raw (non-NULL) cell. Mirrors [`Binning::bin_of`]: bin `b` holds
/// `x` iff `x > edges[b-1]` (when `b > 0`) and `x <= edges[b]` (when
/// `b < edges.len()`); a degenerate binning with no edges puts every
/// known value in bin 0.
fn bin_formula(attr: usize, binning: &Binning, bin: u32) -> Formula {
    let bin = bin as usize;
    let n = binning.edges.len();
    if n == 0 {
        return Formula::Atom(Atom::IsNotNull { attr });
    }
    if bin == 0 {
        less_eq(attr, binning.edges[0])
    } else if bin >= n {
        Formula::Atom(Atom::GreaterConst { attr, value: binning.edges[n - 1] })
    } else {
        Formula::And(vec![
            Formula::Atom(Atom::GreaterConst { attr, value: binning.edges[bin - 1] }),
            less_eq(attr, binning.edges[bin]),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::{AuditConfig, Auditor};
    use dq_table::SchemaBuilder;

    /// BRV=404 ⇒ GBM=901, BRV=501 ⇒ GBM=911, plus an ordered attribute
    /// correlated with BRV, one deviation, a NULL row and an
    /// out-of-label code.
    fn table() -> Table {
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .numeric("weight", 0.0, 200.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..300 {
            let b = (i % 2) as u32;
            t.push_row(&[
                Value::Nominal(b),
                Value::Nominal(b),
                Value::Number(10.0 + 100.0 * b as f64 + (i % 7) as f64),
            ])
            .unwrap();
        }
        t.push_row(&[Value::Nominal(0), Value::Nominal(1), Value::Number(12.0)]).unwrap();
        t.push_row(&[Value::Nominal(0), Value::Null, Value::Null]).unwrap();
        t.push_row(&[Value::Nominal(1), Value::Nominal(1), Value::Number(111.0)]).unwrap();
        let last = t.n_rows() - 1;
        t.set(last, 1, Value::Nominal(7)).unwrap(); // out-of-label code
        t
    }

    fn model(t: &Table) -> StructureModel {
        Auditor::new(AuditConfig::default()).induce(t).unwrap()
    }

    #[test]
    fn flags_the_planted_deviation() {
        let t = table();
        let rules = StructureRuleSet::compile(&model(&t), t.schema());
        assert!(!rules.is_empty());
        let report = rules.detect(&t, Some(1));
        assert!(report.is_flagged(300));
        assert!(!report.is_flagged(0));
    }

    #[test]
    fn compiled_detect_matches_reference_at_every_thread_count() {
        let t = table();
        let rules = StructureRuleSet::compile(&model(&t), t.schema());
        let reference = rules.detect_reference(&t);
        for threads in [1, 2, 4] {
            let report = rules.detect(&t, Some(threads));
            assert_eq!(report.findings, reference.findings, "threads={threads}");
            assert_eq!(report.record_confidence.len(), reference.record_confidence.len());
            for (a, b) in report.record_confidence.iter().zip(&reference.record_confidence) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn flag_nulls_turns_null_classes_into_violations() {
        // Two columns only, so every premise is over the (non-NULL)
        // partner attribute and a NULL class cell is reachable.
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..300 {
            let b = (i % 2) as u32;
            t.push_row(&[Value::Nominal(b), Value::Nominal(b)]).unwrap();
        }
        t.push_row(&[Value::Nominal(0), Value::Null]).unwrap();
        let flagged = Auditor::new(AuditConfig { flag_nulls: true, ..AuditConfig::default() })
            .induce(&t)
            .unwrap();
        let rules = StructureRuleSet::compile(&flagged, t.schema());
        let report = rules.detect(&t, Some(1));
        let reference = rules.detect_reference(&t);
        assert_eq!(report.findings, reference.findings);
        // The NULL row violates the brv=404 ⇒ gbm=901 prescription.
        assert!(report.record_confidence[300] > 0.0);
    }

    #[test]
    fn hygiene_pass_drops_contradicting_rules() {
        // Induce a second model from a table with the opposite
        // dependency (brv=404 ⇒ gbm=911) and merge it in: identical
        // premises now carry contradicting prescriptions, which the
        // pairwise hygiene pass must reject first-accepted-wins.
        // (`flag_nulls` keeps the consequents bare prescriptions — with
        // the NULL disjunct both would be jointly satisfiable by an
        // incomplete record and thus compatible.)
        let t = table();
        let mut flipped = Table::new(t.schema().clone());
        for i in 0..300 {
            let b = (i % 2) as u32;
            flipped
                .push_row(&[
                    Value::Nominal(b),
                    Value::Nominal(1 - b),
                    Value::Number(10.0 + 100.0 * b as f64 + (i % 7) as f64),
                ])
                .unwrap();
        }
        let strict = AuditConfig { flag_nulls: true, ..AuditConfig::default() };
        let mut m = Auditor::new(strict.clone()).induce(&t).unwrap();
        m.models.extend(Auditor::new(strict).induce(&flipped).unwrap().models);
        let rules = StructureRuleSet::compile(&m, t.schema());
        assert!(rules.dropped > 0, "flipped duplicate leaves must be dropped");
        // Dropping is deterministic and first-accepted-wins, so the
        // detector still matches its reference.
        let report = rules.detect(&t, Some(2));
        let reference = rules.detect_reference(&t);
        assert_eq!(report.findings, reference.findings);
    }

    #[test]
    fn bin_formula_mirrors_bin_of() {
        let binning = Binning { edges: vec![1.0, 5.0], n_bins: 3 };
        let schema = SchemaBuilder::new().numeric("x", -10.0, 100.0).build().unwrap();
        for bin in 0..3u32 {
            let f = bin_formula(0, &binning, bin);
            for x in [-3.0, 0.0, 1.0, 2.5, 5.0, 5.1, 80.0] {
                let record = [Value::Number(x)];
                let expect = binning.bin_of(x) == bin;
                assert_eq!(
                    dq_logic::eval_formula(&f, &record),
                    expect,
                    "bin={bin} x={x} schema={:?}",
                    schema.attr(0).name
                );
            }
            assert!(!dq_logic::eval_formula(&f, &[Value::Null]), "NULL is never in a bin");
        }
    }
}
