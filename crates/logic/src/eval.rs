//! NULL-aware evaluation of formulae and rules on records.
//!
//! Semantics: every atom except `isnull` requires its attribute(s) to
//! be non-NULL to hold (this is what makes the Table-1 negation exact).
//! A record *violates* a rule iff the premise holds and the consequent
//! does not — this is what the data generator repairs and what turns a
//! rule set into checkable integrity constraints.

use crate::atom::Atom;
use crate::formula::{Formula, Rule, RuleSet};
use dq_table::{Table, Value};
use std::cmp::Ordering;

/// Truth value of an atom on a record (a slice of cell values indexed
/// by attribute).
pub fn eval_atom(atom: &Atom, record: &[Value]) -> bool {
    match atom {
        Atom::EqConst { attr, value } => record[*attr].sql_eq(value) == Some(true),
        Atom::NeqConst { attr, value } => record[*attr].sql_eq(value) == Some(false),
        Atom::LessConst { attr, value } => {
            matches!(record[*attr].as_numeric(), Some(x) if x < *value)
        }
        Atom::GreaterConst { attr, value } => {
            matches!(record[*attr].as_numeric(), Some(x) if x > *value)
        }
        Atom::IsNull { attr } => record[*attr].is_null(),
        Atom::IsNotNull { attr } => !record[*attr].is_null(),
        Atom::EqAttr { left, right } => record[*left].sql_eq(&record[*right]) == Some(true),
        Atom::NeqAttr { left, right } => record[*left].sql_eq(&record[*right]) == Some(false),
        Atom::LessAttr { left, right } => {
            record[*left].sql_cmp(&record[*right]) == Some(Ordering::Less)
        }
        Atom::GreaterAttr { left, right } => {
            record[*left].sql_cmp(&record[*right]) == Some(Ordering::Greater)
        }
    }
}

/// Truth value of a formula on a record.
pub fn eval_formula(formula: &Formula, record: &[Value]) -> bool {
    match formula {
        Formula::Atom(a) => eval_atom(a, record),
        Formula::And(fs) => fs.iter().all(|f| eval_formula(f, record)),
        Formula::Or(fs) => fs.iter().any(|f| eval_formula(f, record)),
    }
}

/// How a record relates to a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleStatus {
    /// Premise false — the rule does not apply.
    NotApplicable,
    /// Premise and consequent both hold.
    Satisfied,
    /// Premise holds, consequent does not.
    Violated,
}

/// Evaluate a rule on a record.
pub fn eval_rule(rule: &Rule, record: &[Value]) -> RuleStatus {
    if !eval_formula(&rule.premise, record) {
        RuleStatus::NotApplicable
    } else if eval_formula(&rule.consequent, record) {
        RuleStatus::Satisfied
    } else {
        RuleStatus::Violated
    }
}

/// Indices of all rows in `table` that violate `rule`.
///
/// Compiles the rule into a one-rule
/// [`CompiledRuleSet`](crate::program::CompiledRuleSet) and scans with
/// it. The verdicts are [`eval_rule`]'s, row by row, which the
/// workspace's `rule_program_equivalence` property suite checks.
pub fn violations(rule: &Rule, table: &Table) -> Vec<usize> {
    let rules = RuleSet::from_rules(vec![rule.clone()]);
    let compiled = crate::program::CompiledRuleSet::compile(&rules, table.n_cols());
    let mut buf = Vec::with_capacity(table.n_cols());
    let mut out = Vec::new();
    for r in 0..table.n_rows() {
        table.row_into(r, &mut buf);
        if compiled.violates_rule(0, &buf) {
            out.push(r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_table::SchemaBuilder;

    #[test]
    fn atoms_on_nulls_are_false_except_isnull() {
        let rec = [Value::Null, Value::Null];
        assert!(!eval_atom(&Atom::EqConst { attr: 0, value: Value::Nominal(0) }, &rec));
        assert!(!eval_atom(&Atom::NeqConst { attr: 0, value: Value::Nominal(0) }, &rec));
        assert!(!eval_atom(&Atom::LessConst { attr: 0, value: 1.0 }, &rec));
        assert!(!eval_atom(&Atom::GreaterConst { attr: 0, value: 1.0 }, &rec));
        assert!(!eval_atom(&Atom::EqAttr { left: 0, right: 1 }, &rec));
        assert!(!eval_atom(&Atom::NeqAttr { left: 0, right: 1 }, &rec));
        assert!(!eval_atom(&Atom::LessAttr { left: 0, right: 1 }, &rec));
        assert!(eval_atom(&Atom::IsNull { attr: 0 }, &rec));
        assert!(!eval_atom(&Atom::IsNotNull { attr: 0 }, &rec));
    }

    #[test]
    fn ordering_atoms() {
        let rec = [Value::Number(3.0), Value::Number(5.0)];
        assert!(eval_atom(&Atom::LessConst { attr: 0, value: 4.0 }, &rec));
        assert!(!eval_atom(&Atom::LessConst { attr: 0, value: 3.0 }, &rec)); // strict
        assert!(eval_atom(&Atom::GreaterConst { attr: 1, value: 4.0 }, &rec));
        assert!(eval_atom(&Atom::LessAttr { left: 0, right: 1 }, &rec));
        assert!(eval_atom(&Atom::GreaterAttr { left: 1, right: 0 }, &rec));
        assert!(!eval_atom(&Atom::GreaterAttr { left: 0, right: 1 }, &rec));
    }

    #[test]
    fn date_vs_number_threshold() {
        let rec = [Value::Date(100)];
        assert!(eval_atom(&Atom::LessConst { attr: 0, value: 101.0 }, &rec));
        assert!(eval_atom(&Atom::EqConst { attr: 0, value: Value::Number(100.0) }, &rec));
    }

    #[test]
    fn connective_evaluation() {
        let rec = [Value::Nominal(1), Value::Nominal(2)];
        let a = Formula::Atom(Atom::EqConst { attr: 0, value: Value::Nominal(1) });
        let b = Formula::Atom(Atom::EqConst { attr: 1, value: Value::Nominal(0) });
        assert!(eval_formula(&Formula::And(vec![a.clone()]), &rec));
        assert!(!eval_formula(&Formula::And(vec![a.clone(), b.clone()]), &rec));
        assert!(eval_formula(&Formula::Or(vec![b.clone(), a.clone()]), &rec));
        assert!(!eval_formula(&Formula::Or(vec![b]), &rec));
    }

    #[test]
    fn rule_status() {
        let rule = Rule::new(
            Formula::Atom(Atom::EqConst { attr: 0, value: Value::Nominal(0) }),
            Formula::Atom(Atom::EqConst { attr: 1, value: Value::Nominal(1) }),
        );
        assert_eq!(
            eval_rule(&rule, &[Value::Nominal(1), Value::Nominal(0)]),
            RuleStatus::NotApplicable
        );
        assert_eq!(
            eval_rule(&rule, &[Value::Nominal(0), Value::Nominal(1)]),
            RuleStatus::Satisfied
        );
        assert_eq!(eval_rule(&rule, &[Value::Nominal(0), Value::Nominal(0)]), RuleStatus::Violated);
        // NULL premise attribute → not applicable.
        assert_eq!(eval_rule(&rule, &[Value::Null, Value::Nominal(0)]), RuleStatus::NotApplicable);
    }

    #[test]
    fn table_violations() {
        let schema =
            SchemaBuilder::new().nominal("a", ["x", "y"]).nominal("b", ["x", "y"]).build().unwrap();
        let mut t = dq_table::Table::new(schema);
        t.push_row(&[Value::Nominal(0), Value::Nominal(1)]).unwrap(); // satisfied
        t.push_row(&[Value::Nominal(0), Value::Nominal(0)]).unwrap(); // violated
        t.push_row(&[Value::Nominal(1), Value::Nominal(0)]).unwrap(); // n/a
        t.push_row(&[Value::Nominal(0), Value::Null]).unwrap(); // violated (null consequent)
        let rule = Rule::new(
            Formula::Atom(Atom::EqConst { attr: 0, value: Value::Nominal(0) }),
            Formula::Atom(Atom::EqConst { attr: 1, value: Value::Nominal(1) }),
        );
        assert_eq!(violations(&rule, &t), vec![1, 3]);
        let interpreted: Vec<usize> = (0..t.n_rows())
            .filter(|&r| eval_rule(&rule, &t.row(r)) == RuleStatus::Violated)
            .collect();
        assert_eq!(interpreted, vec![1, 3]);
    }
}
