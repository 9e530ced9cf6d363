//! Rule-violation accounting over polluted tables.
//!
//! The test environment's contract is that pollution is the *only*
//! source of rule violations: the generator emits a table following
//! its rule set, the polluter corrupts some cells, and every row that
//! now violates a rule must be a logged corruption. This module checks
//! that contract at scale — the rule set is compiled once into a
//! [`CompiledRuleSet`] and every record is scanned with its fused
//! violation programs instead of re-walking formula trees per rule.

use crate::log::PollutionLog;
use dq_logic::{CompiledRuleSet, RuleSet};
use dq_table::{Table, Value};

/// Per-rule violation counts over `table` (index-aligned with the rule
/// set), via the compiled rule set.
pub fn count_violations(table: &Table, rules: &RuleSet) -> Vec<usize> {
    let compiled = CompiledRuleSet::compile(rules, table.n_cols());
    let mut counts = vec![0usize; rules.len()];
    let mut buf: Vec<Value> = Vec::with_capacity(table.n_cols());
    for r in 0..table.n_rows() {
        table.row_into(r, &mut buf);
        for (i, count) in counts.iter_mut().enumerate() {
            if compiled.violates_rule(i, &buf) {
                *count += 1;
            }
        }
    }
    counts
}

/// Rows of `table` violating at least one rule, via the compiled rule
/// set.
pub fn violating_rows(table: &Table, rules: &RuleSet) -> Vec<usize> {
    let compiled = CompiledRuleSet::compile(rules, table.n_cols());
    let mut out = Vec::new();
    let mut buf: Vec<Value> = Vec::with_capacity(table.n_cols());
    for r in 0..table.n_rows() {
        table.row_into(r, &mut buf);
        if (0..compiled.len()).any(|i| compiled.violates_rule(i, &buf)) {
            out.push(r);
        }
    }
    out
}

/// Check the pollution contract: every row of `dirty` that violates a
/// rule must be corrupted according to `log` (cell corruption on the
/// row, or the row being a duplicator copy). Returns the violating
/// rows that the log does **not** explain — non-empty means either the
/// clean table did not follow the rules or the log is incomplete.
pub fn unexplained_violations(dirty: &Table, rules: &RuleSet, log: &PollutionLog) -> Vec<usize> {
    violating_rows(dirty, rules).into_iter().filter(|&r| !log.is_row_corrupted(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{pollute, PollutionConfig};
    use dq_logic::{eval_rule, parse_rule, Rule, RuleStatus};
    use dq_table::{SchemaBuilder, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (Table, RuleSet) {
        let schema = SchemaBuilder::new()
            .nominal("a", ["x", "y", "z"])
            .nominal("b", ["x", "y", "z"])
            .numeric("n", 0.0, 100.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema.clone());
        for i in 0..400 {
            t.push_row(&[
                Value::Nominal((i % 3) as u32),
                Value::Nominal((i % 3) as u32), // a = b everywhere
                Value::Number((i % 50) as f64), // n < 50 everywhere
            ])
            .unwrap();
        }
        let rules = RuleSet::from_rules(vec![
            parse_rule(&schema, "a = x -> b = x").unwrap(),
            parse_rule(&schema, "a = y -> n < 50").unwrap(),
        ]);
        (t, rules)
    }

    #[test]
    fn clean_table_has_no_violations() {
        let (clean, rules) = fixture();
        assert_eq!(count_violations(&clean, &rules), vec![0, 0]);
        assert!(violating_rows(&clean, &rules).is_empty());
    }

    /// Rows of `table` violating `rule`, by the interpreter row by row.
    fn interpreted_violations(rule: &Rule, table: &Table) -> Vec<usize> {
        (0..table.n_rows())
            .filter(|&r| eval_rule(rule, &table.row(r)) == RuleStatus::Violated)
            .collect()
    }

    #[test]
    fn counts_match_the_interpreted_scan() {
        let (clean, rules) = fixture();
        let (dirty, _) = pollute(
            &clean,
            &PollutionConfig::standard().with_factor(6.0),
            &mut StdRng::seed_from_u64(5),
        );
        let counts = count_violations(&dirty, &rules);
        for (i, rule) in rules.iter().enumerate() {
            assert_eq!(counts[i], interpreted_violations(rule, &dirty).len(), "rule {i}");
        }
        // violating_rows = union of the per-rule interpreted scans.
        let mut expected: Vec<usize> =
            rules.iter().flat_map(|r| interpreted_violations(r, &dirty)).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(violating_rows(&dirty, &rules), expected);
    }

    #[test]
    fn pollution_explains_every_violation() {
        let (clean, rules) = fixture();
        let (dirty, log) = pollute(
            &clean,
            &PollutionConfig::standard().with_factor(4.0),
            &mut StdRng::seed_from_u64(7),
        );
        // The clean table followed the rules, so every violating dirty
        // row must trace back to a logged corruption.
        assert!(unexplained_violations(&dirty, &rules, &log).is_empty());
        // And the suite at factor 4 does break the structure somewhere.
        assert!(!violating_rows(&dirty, &rules).is_empty());
    }
}
