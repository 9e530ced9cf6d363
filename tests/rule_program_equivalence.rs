//! Property suite pinning the compiled rule-program layer to the
//! interpreter: for random natural formulae/rules and random records —
//! including NULLs and out-of-label `#<code>` nominal cells — the flat
//! branch programs of `dq_logic::program` must agree with
//! `eval_formula`/`eval_rule` verdict for verdict.

use data_audit::logic::eval::{eval_formula, eval_rule, violations};
use data_audit::logic::{CompiledFormula, CompiledRuleSet, RuleStatus};
use data_audit::prelude::*;
use data_audit::tdg::{AtomSampler, AtomWeights, FormulaShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Rows of `table` violating `rule`, by the interpreter row by row.
fn interpreted_violations(rule: &Rule, table: &Table) -> Vec<usize> {
    (0..table.n_rows())
        .filter(|&r| eval_rule(rule, &table.row(r)) == RuleStatus::Violated)
        .collect()
}

/// A schema exercising every attribute kind the logic knows.
fn mixed_schema(cards: (usize, usize)) -> Arc<Schema> {
    SchemaBuilder::new()
        .nominal_sized("a", cards.0)
        .nominal_sized("b", cards.0)
        .nominal_sized("c", cards.1)
        .numeric("x", 0.0, 100.0)
        .integer("k", 0.0, 20.0)
        .date_ymd("d", (2000, 1, 1), (2005, 12, 31))
        .build()
        .unwrap()
}

/// A random record over `schema`: kind-correct cells, with NULLs and —
/// for nominal attributes — occasional out-of-label codes (what
/// switcher/wrong-value pollution leaves behind).
fn random_record<R: rand::Rng + ?Sized>(schema: &Schema, rng: &mut R) -> Vec<Value> {
    schema
        .attributes()
        .iter()
        .map(|attr| {
            if rng.gen_bool(0.15) {
                return Value::Null;
            }
            match &attr.ty {
                AttrType::Nominal { labels } => {
                    if rng.gen_bool(0.1) {
                        // Out-of-label code (dirty data is representable).
                        Value::Nominal(labels.len() as u32 + rng.gen_range(0..3u32))
                    } else {
                        Value::Nominal(rng.gen_range(0..labels.len() as u32))
                    }
                }
                AttrType::Numeric { min, max, integer } => {
                    let x = rng.gen_range(*min..=*max);
                    Value::Number(if *integer { x.round() } else { x })
                }
                AttrType::Date { min, max } => Value::Date(rng.gen_range(*min..=*max)),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Compiled formula programs agree with the interpreter on random
    /// natural formulae × random records.
    #[test]
    fn compiled_formula_matches_interpreter(
        seed in 0u64..10_000,
        card in 3usize..6,
        max_atoms in 1usize..5,
        p_disjunction in 0.0f64..0.9,
    ) {
        let schema = mixed_schema((card, card + 2));
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = AtomSampler::new(&schema, AtomWeights::default());
        let shape = FormulaShape { min_atoms: 1, max_atoms, p_disjunction };
        for _ in 0..8 {
            let formula = sampler.sample_formula(&schema, &shape, &mut rng);
            let compiled = CompiledFormula::compile(&formula);
            for _ in 0..40 {
                let record = random_record(&schema, &mut rng);
                prop_assert_eq!(
                    compiled.eval(&record),
                    eval_formula(&formula, &record),
                    "formula {} on {:?}",
                    formula,
                    record
                );
            }
        }
    }

    /// The compiled rule set's violation verdicts agree with
    /// `eval_rule`, and the compiled violation scan agrees with the
    /// retained interpreted scan.
    #[test]
    fn compiled_rules_match_interpreter(
        seed in 0u64..10_000,
        card in 3usize..6,
    ) {
        let schema = mixed_schema((card, card + 1));
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = AtomSampler::new(&schema, AtomWeights::default());
        let premise_shape = FormulaShape { min_atoms: 1, max_atoms: 3, p_disjunction: 0.2 };
        let consequent_shape = FormulaShape { min_atoms: 1, max_atoms: 2, p_disjunction: 0.3 };
        let rules: Vec<Rule> = (0..6)
            .map(|_| {
                Rule::new(
                    sampler.sample_formula(&schema, &premise_shape, &mut rng),
                    sampler.sample_formula(&schema, &consequent_shape, &mut rng),
                )
            })
            .collect();
        let rule_set = RuleSet::from_rules(rules);
        let compiled = CompiledRuleSet::compile(&rule_set, schema.len());
        let mut table = Table::new(schema.clone());
        for _ in 0..60 {
            let record = random_record(&schema, &mut rng);
            for (i, rule) in rule_set.iter().enumerate() {
                let expected = eval_rule(rule, &record) == RuleStatus::Violated;
                prop_assert_eq!(
                    compiled.violates_rule(i, &record),
                    expected,
                    "rule {} on {:?}",
                    rule,
                    record
                );
            }
            table.push_row_lenient(&record).unwrap();
        }
        // Whole-table scans: compiled `violations` == interpreted scan.
        for (i, rule) in rule_set.iter().enumerate() {
            prop_assert_eq!(violations(rule, &table), interpreted_violations(rule, &table), "rule {}", i);
        }
        let per_rule = compiled.violations(&table);
        for (i, rule) in rule_set.iter().enumerate() {
            prop_assert_eq!(&per_rule[i], &interpreted_violations(rule, &table), "rule {}", i);
        }
    }
}
