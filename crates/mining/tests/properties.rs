//! Property-based checks of the mining substrate: tree predictions,
//! rule extraction and association mining must uphold their structural
//! contracts on arbitrary tables.

use dq_mining::{
    Apriori, AprioriConfig, C45Config, C45Inducer, Classifier, InducerKind, Pruning, TrainingSet,
};
use dq_table::{Schema, SchemaBuilder, Table, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    SchemaBuilder::new()
        .nominal("a", ["p", "q", "r"])
        .nominal("b", ["p", "q", "r", "s"])
        .numeric("x", 0.0, 10.0)
        .nominal("y", ["k0", "k1", "k2"])
        .build()
        .unwrap()
}

fn cell(attr: usize) -> BoxedStrategy<Value> {
    match attr {
        0 => prop_oneof![Just(Value::Null), (0u32..3).prop_map(Value::Nominal)].boxed(),
        1 => prop_oneof![Just(Value::Null), (0u32..4).prop_map(Value::Nominal)].boxed(),
        2 => prop_oneof![Just(Value::Null), (0.0f64..10.0).prop_map(Value::Number)].boxed(),
        _ => prop_oneof![Just(Value::Null), (0u32..3).prop_map(Value::Nominal)].boxed(),
    }
}

fn record() -> impl Strategy<Value = Vec<Value>> {
    (cell(0), cell(1), cell(2), cell(3)).prop_map(|(a, b, x, y)| vec![a, b, x, y])
}

/// Tables with at least a handful of labelled rows.
fn table_strategy() -> impl Strategy<Value = Table> {
    proptest::collection::vec(record(), 20..120).prop_map(|rows| {
        let mut t = Table::new(schema());
        for (i, mut r) in rows.into_iter().enumerate() {
            if r[3].is_null() && i % 2 == 0 {
                r[3] = Value::Nominal((i % 3) as u32); // guarantee some classes
            }
            t.push_row(&r).unwrap();
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Tree predictions are structurally sound on arbitrary records:
    /// non-negative counts, support bounded by the training weight,
    /// and deterministic.
    #[test]
    fn tree_prediction_contract(t in table_strategy(), probe in record()) {
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let n_train = ts.rows.len() as f64;
        let tree = C45Inducer::default().induce_tree(&ts).unwrap();
        let p = tree.predict(&probe);
        prop_assert_eq!(p.counts.len(), ts.class_card() as usize);
        prop_assert!(p.counts.iter().all(|&c| c >= 0.0 && c.is_finite()));
        prop_assert!(p.support <= n_train + 1e-6, "support {} > {}", p.support, n_train);
        let again = tree.predict(&probe);
        prop_assert_eq!(p.counts, again.counts);
    }

    /// Full-tree rule extraction partitions the NULL-free record space:
    /// every NULL-free record matches exactly one enabled rule.
    #[test]
    fn rules_partition_nullfree_space(t in table_strategy(), probe in record()) {
        prop_assume!(probe.iter().all(|v| !v.is_null()));
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let cfg = C45Config { pruning: Pruning::None, ..C45Config::default() };
        let tree = C45Inducer::new(cfg).induce_tree(&ts).unwrap();
        let rules = tree.to_rules();
        let matches = rules
            .iter()
            .filter(|r| r.premise_matches(&probe) == Some(true))
            .count();
        prop_assert!(matches <= 1, "{matches} rules match one record");
        // If no rule matches, the record fell into an all-NULL-trained
        // branch (empty leaf) — acceptable; but rule supports must
        // still sum to the training weight.
        let total: f64 = rules.iter().map(|r| r.support).sum();
        prop_assert!((total - ts.rows.len() as f64).abs() < 1e-6);
    }

    /// Every inducer family produces a working classifier on arbitrary
    /// data.
    #[test]
    fn all_inducers_produce_classifiers(t in table_strategy(), probe in record()) {
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        for kind in [
            InducerKind::default(),
            InducerKind::NaiveBayes,
            InducerKind::Knn { k: 3 },
            InducerKind::OneR,
            InducerKind::ZeroR,
        ] {
            let clf = kind.build().induce(&ts).unwrap();
            let p = clf.predict(&probe);
            prop_assert_eq!(p.counts.len(), ts.class_card() as usize);
            prop_assert!(p.counts.iter().all(|&c| c >= 0.0 && c.is_finite()));
        }
    }

    /// Apriori contracts: rule confidences within (0, 1], supports at
    /// least the minimum, violated rules' antecedents actually hold on
    /// the record.
    #[test]
    fn apriori_contract(t in table_strategy()) {
        let cfg = AprioriConfig { min_support: 0.1, min_confidence: 0.7, ..AprioriConfig::default() };
        let min_count = (0.1 * t.n_rows() as f64).max(1.0);
        let ap = Apriori::mine(&t, cfg).unwrap();
        for r in ap.rules() {
            prop_assert!(r.confidence > 0.0 && r.confidence <= 1.0 + 1e-12);
            prop_assert!(r.support + 1e-9 >= min_count);
        }
        let mut coded = Vec::new();
        for row in 0..t.n_rows().min(20) {
            ap.code_record_into(&t.row(row), &mut coded);
            for v in ap.violated(&coded) {
                // The consequent attribute must disagree, non-NULL.
                prop_assert!(coded[v.attr].is_some());
            }
        }
    }

    /// Pruned trees never grow beyond unpruned ones, and disabling
    /// weak leaves never increases the enabled count.
    #[test]
    fn pruning_monotonicity(t in table_strategy()) {
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let unpruned = C45Inducer::new(C45Config { pruning: Pruning::None, ..C45Config::default() })
            .induce_tree(&ts)
            .unwrap();
        let pruned = C45Inducer::default().induce_tree(&ts).unwrap();
        prop_assert!(pruned.n_leaves() <= unpruned.n_leaves());
        let mut tree = unpruned;
        let before = tree.n_enabled_leaves();
        let disabled = tree.disable_undetecting_leaves(0.8);
        prop_assert_eq!(tree.n_enabled_leaves() + disabled, before);
    }
}
