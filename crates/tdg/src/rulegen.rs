//! Random generation of natural rule sets (sec. 4.1.2).
//!
//! Rules are drawn from the [`crate::atomgen::AtomSampler`]
//! and admitted only if they are natural (Def. 5) and keep the set
//! natural under the pairwise condition of Def. 6. The generator
//! reports how many candidates each filter rejected — the "number of
//! generated rules is intended to reflect the structural strength of
//! the data", so silent rejection would distort every experiment
//! parameterized by rule count.

use crate::atomgen::{AtomSampler, AtomWeights, FormulaShape};
use dq_logic::pairs::{instance_conflict, pair_conflict, CachedRule};
use dq_logic::{is_natural_rule, Rule, RuleSet};
use dq_table::Schema;
use rand::Rng;

/// Parameters of the rule generator.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleGenConfig {
    /// Number of rules to generate.
    pub n_rules: usize,
    /// Atom-kind weights for premises. The default zeroes the
    /// `isnull`/`isnotnull` kinds: premises that test for NULL defeat
    /// the data generator's NULL escape (falsifying one rule's premise
    /// by nulling an attribute would *activate* another's), making
    /// dense rule sets unsatisfiable in practice. Callers that want
    /// null-test premises can opt back in.
    pub premise_weights: AtomWeights,
    /// Atom-kind weights for consequents (null tests allowed: rules
    /// like `a = v1 → b isnull` are meaningful structure).
    pub consequent_weights: AtomWeights,
    /// Shape of rule premises (conjunctions of up to `max_atoms`).
    pub premise: FormulaShape,
    /// Shape of rule consequents (usually single atoms, like the QUIS
    /// dependencies in the paper).
    pub consequent: FormulaShape,
    /// Candidate attempts per accepted rule before the generator gives
    /// up on the remaining quota.
    pub max_tries_per_rule: usize,
    /// Also reject candidates whose premise *overlaps* an accepted
    /// rule's premise while their consequents cannot hold together —
    /// Def. 6 only rejects this for nested premises (`αⱼ ⇒ αᵢ`), so
    /// overlapping-but-incomparable premises can still demand
    /// contradictory consequents on individual records, which makes
    /// dense rule sets unsatisfiable in practice. The paper
    /// acknowledges the ideal (global entailment) check "is expensive";
    /// this pairwise instance-compatibility check is the affordable
    /// middle ground and is on by default. Disable to get literal
    /// Def. 6 sets.
    pub strict_compatibility: bool,
}

impl Default for RuleGenConfig {
    fn default() -> Self {
        RuleGenConfig {
            n_rules: 20,
            premise_weights: AtomWeights {
                is_null: 0.0,
                is_not_null: 0.0,
                ..AtomWeights::default()
            },
            consequent_weights: AtomWeights::default(),
            premise: FormulaShape { min_atoms: 1, max_atoms: 2, p_disjunction: 0.1 },
            consequent: FormulaShape { min_atoms: 1, max_atoms: 1, p_disjunction: 0.0 },
            max_tries_per_rule: 200,
            strict_compatibility: true,
        }
    }
}

/// What happened while generating a rule set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleGenReport {
    /// Rules accepted into the set.
    pub accepted: usize,
    /// Candidates rejected for violating Def. 5 (unnatural rule).
    pub rejected_unnatural: usize,
    /// Candidates rejected for conflicting with an accepted rule
    /// (Def. 6 pairwise condition).
    pub rejected_conflict: usize,
    /// `true` if the quota could not be filled within the try budget.
    pub exhausted: bool,
}

/// Generate a natural rule set of (up to) `config.n_rules` rules.
///
/// The result is always a natural rule set; when the schema is too
/// small to host the requested number of mutually compatible rules the
/// report's `exhausted` flag is set and fewer rules are returned.
pub fn generate_rule_set<R: Rng + ?Sized>(
    schema: &Schema,
    config: &RuleGenConfig,
    rng: &mut R,
) -> (RuleSet, RuleGenReport) {
    let premise_sampler = AtomSampler::new(schema, config.premise_weights.clone());
    let consequent_sampler = AtomSampler::new(schema, config.consequent_weights.clone());
    // The quadratic hygiene pass compares every candidate against every
    // accepted rule; `CachedRule` memoizes each rule's DNFs, attribute
    // masks and premise validity once, and the cached checks prefilter
    // attribute-disjoint pairs. The decisions are those of
    // `dq_logic::rule_pair_conflict` and, under strict compatibility,
    // of `satisfiable` on the two premises alone and together with both
    // consequents; the frozen rule sets in the tests pin them.
    let mut accepted: Vec<CachedRule> = Vec::with_capacity(config.n_rules);
    let mut report = RuleGenReport::default();
    'quota: while accepted.len() < config.n_rules {
        let mut tries = 0;
        loop {
            if tries >= config.max_tries_per_rule {
                report.exhausted = true;
                break 'quota;
            }
            tries += 1;
            let premise = premise_sampler.sample_formula(schema, &config.premise, rng);
            let consequent = consequent_sampler.sample_formula(schema, &config.consequent, rng);
            let rule = Rule::new(premise, consequent);
            if !is_natural_rule(schema, &rule) {
                report.rejected_unnatural += 1;
                continue;
            }
            let cached = CachedRule::new(schema, rule);
            if accepted.iter().any(|a| {
                pair_conflict(schema, a, &cached)
                    || (config.strict_compatibility && instance_conflict(schema, a, &cached))
            }) {
                report.rejected_conflict += 1;
                continue;
            }
            accepted.push(cached);
            report.accepted += 1;
            break;
        }
    }
    (RuleSet::from_rules(accepted.into_iter().map(|c| c.rule).collect()), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_logic::is_natural_rule_set;
    use dq_table::SchemaBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> std::sync::Arc<Schema> {
        SchemaBuilder::new()
            .nominal("a", ["v1", "v2", "v3", "v4"])
            .nominal("b", ["v1", "v2", "v3", "v4"])
            .nominal("c", ["w1", "w2", "w3", "w4", "w5", "w6"])
            .numeric("n", 0.0, 1000.0)
            .date_ymd("d", (1995, 1, 1), (2005, 12, 31))
            .build()
            .unwrap()
    }

    #[test]
    fn generated_sets_are_natural() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = RuleGenConfig { n_rules: 15, ..RuleGenConfig::default() };
        let (rules, report) = generate_rule_set(&s, &cfg, &mut rng);
        assert_eq!(rules.len(), 15);
        assert_eq!(report.accepted, 15);
        assert!(is_natural_rule_set(&s, &rules.rules), "generator must emit natural sets");
    }

    #[test]
    fn rules_validate_against_schema() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(8);
        let (rules, _) = generate_rule_set(&s, &RuleGenConfig::default(), &mut rng);
        for r in &rules {
            assert!(r.validate(&s).is_ok(), "rule {r}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let s = schema();
        let cfg = RuleGenConfig { n_rules: 10, ..RuleGenConfig::default() };
        let (a, _) = generate_rule_set(&s, &cfg, &mut StdRng::seed_from_u64(42));
        let (b, _) = generate_rule_set(&s, &cfg, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_schema_exhausts_gracefully() {
        // One binary attribute cannot host many mutually natural rules.
        let s =
            SchemaBuilder::new().nominal("a", ["x", "y"]).nominal("z", ["x", "y"]).build().unwrap();
        let cfg =
            RuleGenConfig { n_rules: 500, max_tries_per_rule: 50, ..RuleGenConfig::default() };
        let mut rng = StdRng::seed_from_u64(9);
        let (rules, report) = generate_rule_set(&s, &cfg, &mut rng);
        assert!(report.exhausted);
        assert!(rules.len() < 500);
        assert!(is_natural_rule_set(&s, &rules.rules));
    }

    #[test]
    fn zero_rules_is_a_valid_request() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = RuleGenConfig { n_rules: 0, ..RuleGenConfig::default() };
        let (rules, report) = generate_rule_set(&s, &cfg, &mut rng);
        assert!(rules.is_empty());
        assert_eq!(report, RuleGenReport::default());
    }

    /// FNV-1a of a rendered rule set followed by its report.
    fn digest(schema: &Schema, rules: &RuleSet, report: &RuleGenReport) -> u64 {
        let text = format!("{}\n{report:?}", rules.render(schema));
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The memoized generator's sets and reports are frozen: 25 rules
    /// at seeds 3, 21 and 99, and a literal Def. 6 set (no strict
    /// compatibility) of 20 rules at seed 5. The digests were recorded
    /// while an uncached reference generator, which re-derived every
    /// DNF and ran `rule_pair_conflict` and `satisfiable` on each
    /// candidate pair, was checked to give the same sets and reports.
    #[test]
    fn memoized_generator_matches_frozen_digests() {
        let s = schema();
        let cases = [(3u64, 25, true), (21, 25, true), (99, 25, true), (5, 20, false)];
        let mut actual = Vec::new();
        for (seed, n_rules, strict_compatibility) in cases {
            let cfg = RuleGenConfig { n_rules, strict_compatibility, ..RuleGenConfig::default() };
            let (rules, report) = generate_rule_set(&s, &cfg, &mut StdRng::seed_from_u64(seed));
            assert!(is_natural_rule_set(&s, &rules.rules), "seed {seed}");
            actual.push(digest(&s, &rules, &report));
        }
        let frozen: [u64; 4] =
            [0xec2e2b2633fe8163, 0xc5197dad1940409e, 0xd13975fcb2d5ff62, 0x368ed900d7136cf9];
        assert_eq!(actual, frozen);
    }

    #[test]
    fn report_counts_rejections() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = RuleGenConfig { n_rules: 40, ..RuleGenConfig::default() };
        let (_, report) = generate_rule_set(&s, &cfg, &mut rng);
        // With 40 rules over a 5-attribute schema some collisions are
        // statistically certain.
        assert!(report.rejected_unnatural + report.rejected_conflict > 0);
    }
}
