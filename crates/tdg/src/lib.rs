//! # dq-tdg — the rule-pattern-based artificial test data generator
//!
//! The main contribution of sec. 4 of *Systematic Development of Data
//! Mining-Based Data Quality Tools* (Luebbers, Grimmer, Jarke;
//! VLDB 2003): a "highly parameterizable artificial test data
//! generator" that "simulates structural characteristics of the
//! application database" so that data-auditing tools can be calibrated
//! against data whose errors are *known*.
//!
//! Pipeline (all steps seeded and reproducible):
//!
//! 1. [`atomgen`] — random well-formed atoms/formulae over a schema,
//!    weighted by atom kind;
//! 2. [`rulegen`] — random **natural rule sets** (Defs. 4-6 of the
//!    paper): candidates are rejected until the set is non-tautological,
//!    non-redundant and pairwise contradiction-free;
//! 3. [`datagen`] — records sampled from univariate start distributions
//!    and/or multivariate Bayesian networks, then iteratively
//!    **repaired** until they follow the rules.
//!
//! The [`TestDataGenerator`] facade bundles the three steps; the
//! polluters of `dq-pollute` corrupt its output afterwards.

pub mod atomgen;
pub mod datagen;
pub mod rulegen;

pub use atomgen::{random_domain_value, AtomSampler, AtomWeights, FormulaShape};
pub use datagen::{
    generate_table, DataGenConfig, GenReport, GenerateStream, StartDistributions, GEN_CHUNK_ROWS,
};
pub use rulegen::{generate_rule_set, RuleGenConfig, RuleGenReport};

use dq_logic::RuleSet;
use dq_table::{Schema, Table};
use rand::Rng;
use std::sync::Arc;

/// The full generator: schema + rule generation + data generation.
#[derive(Debug, Clone)]
pub struct TestDataGenerator {
    /// Target-relation schema ("a schema for the target relation with
    /// domain ranges for each attribute").
    pub schema: Arc<Schema>,
    /// Rule-generation parameters.
    pub rules: RuleGenConfig,
    /// Data-generation parameters.
    pub data: DataGenConfig,
}

/// The output of one generator run: the clean benchmark database plus
/// the ground-truth structure it follows.
#[derive(Debug, Clone)]
pub struct GeneratedBenchmark {
    /// The schema (shared with `clean`).
    pub schema: Arc<Schema>,
    /// The generated natural rule set — the ground-truth structure.
    pub rules: RuleSet,
    /// The clean database following `rules`.
    pub clean: Table,
    /// Rule-generation diagnostics.
    pub rule_report: RuleGenReport,
    /// Data-generation diagnostics.
    pub gen_report: GenReport,
}

impl TestDataGenerator {
    /// A generator with default rule/data parameters.
    pub fn new(schema: Arc<Schema>, n_rules: usize, n_rows: usize) -> Self {
        let data = DataGenConfig::new(&schema, n_rows);
        TestDataGenerator {
            schema,
            rules: RuleGenConfig { n_rules, ..RuleGenConfig::default() },
            data,
        }
    }

    /// Run rule generation followed by data generation.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> GeneratedBenchmark {
        let (rules, rule_report) = generate_rule_set(&self.schema, &self.rules, rng);
        let (clean, gen_report) = generate_table(&self.schema, &rules, &self.data, rng);
        GeneratedBenchmark { schema: self.schema.clone(), rules, clean, rule_report, gen_report }
    }

    /// Generate data for an externally supplied rule set (e.g. a
    /// hand-written domain model). Borrows the rule set — generation
    /// compiles the rules once and never needs ownership; the returned
    /// benchmark carries its own copy.
    pub fn generate_with_rules<R: Rng + ?Sized>(
        &self,
        rules: &RuleSet,
        rng: &mut R,
    ) -> GeneratedBenchmark {
        let (clean, gen_report) = generate_table(&self.schema, rules, &self.data, rng);
        GeneratedBenchmark {
            schema: self.schema.clone(),
            rules: rules.clone(),
            clean,
            rule_report: RuleGenReport::default(),
            gen_report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_logic::eval::violations;
    use dq_table::SchemaBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Arc<Schema> {
        SchemaBuilder::new()
            .nominal("a", ["v1", "v2", "v3", "v4"])
            .nominal("b", ["v1", "v2", "v3", "v4"])
            .nominal("c", ["w1", "w2", "w3"])
            .numeric("n", 0.0, 100.0)
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_generation() {
        let gen = TestDataGenerator::new(schema(), 12, 800);
        let mut rng = StdRng::seed_from_u64(99);
        let b = gen.generate(&mut rng);
        assert_eq!(b.clean.n_rows(), 800);
        assert_eq!(b.rules.len(), 12);
        // Whatever the repair loop could not fix is reported; everything
        // else must hold in the emitted table.
        let total_violations: usize = b.rules.iter().map(|r| violations(r, &b.clean).len()).sum();
        assert_eq!(total_violations as u64, b.gen_report.unresolved_violations);
        // The overwhelming majority of rows must comply (the generator
        // exists to create *structured* data).
        assert!(b.gen_report.unresolved_rows < 40, "{:?}", b.gen_report);
    }

    #[test]
    fn generation_is_reproducible() {
        let gen = TestDataGenerator::new(schema(), 8, 200);
        let a = gen.generate(&mut StdRng::seed_from_u64(5));
        let b = gen.generate(&mut StdRng::seed_from_u64(5));
        assert_eq!(a.rules, b.rules);
        assert_eq!(a.clean.n_rows(), b.clean.n_rows());
        for r in 0..a.clean.n_rows() {
            assert_eq!(a.clean.row(r), b.clean.row(r), "row {r}");
        }
    }

    #[test]
    fn external_rule_sets_are_honoured() {
        use dq_logic::{parse_rule, RuleSet};
        let s = schema();
        let rule = parse_rule(&s, "a = v1 -> b = v2").unwrap();
        let gen = TestDataGenerator::new(s.clone(), 0, 300);
        let mut rng = StdRng::seed_from_u64(6);
        let b = gen.generate_with_rules(&RuleSet::from_rules(vec![rule.clone()]), &mut rng);
        assert!(violations(&rule, &b.clean).is_empty());
    }
}
