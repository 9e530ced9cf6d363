//! Property-based cross-crate invariants: whatever the generator,
//! polluter and auditor are parameterized with, the contracts between
//! the stages must hold.

use data_audit::logic::eval::violations;
use data_audit::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn small_schema(nominal_cards: &[usize], with_numeric: bool) -> Arc<Schema> {
    let mut b = SchemaBuilder::new();
    for (i, &card) in nominal_cards.iter().enumerate() {
        b = b.nominal_sized(&format!("n{i}"), card);
    }
    if with_numeric {
        b = b.numeric("x", 0.0, 100.0);
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Generated data follows every generated rule (up to the reported
    /// unresolved violations, which must match exactly).
    #[test]
    fn generated_data_follows_rules(
        seed in 0u64..5000,
        n_rules in 0usize..12,
        rows in 50usize..300,
        card in 3usize..6,
    ) {
        let schema = small_schema(&[card, card, card + 1], true);
        let generator = TestDataGenerator::new(schema, n_rules, rows);
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generator.generate(&mut rng);
        let total: usize = b.rules.iter().map(|r| violations(r, &b.clean).len()).sum();
        prop_assert_eq!(total as u64, b.gen_report.unresolved_violations);
        prop_assert_eq!(b.clean.n_rows(), rows);
    }

    /// The pollution log is exactly the diff between clean and dirty
    /// tables (for non-deleted rows), and prevalence accounting holds.
    #[test]
    fn pollution_log_is_the_diff(
        seed in 0u64..5000,
        factor in 0.5f64..6.0,
        rows in 50usize..250,
    ) {
        let schema = small_schema(&[4, 3], true);
        let generator = TestDataGenerator::new(schema, 3, rows);
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generator.generate(&mut rng);
        let cfg = PollutionConfig::standard().with_factor(factor);
        let (dirty, log) = pollute(&b.clean, &cfg, &mut rng);
        prop_assert_eq!(log.n_rows(), dirty.n_rows());
        for (dr, prov) in log.provenance.iter().enumerate() {
            for a in 0..dirty.n_cols() {
                let c = b.clean.get(prov.clean_row, a);
                let d = dirty.get(dr, a);
                let differs =
                    c.sql_eq(&d) != Some(true) && !(c.is_null() && d.is_null());
                prop_assert_eq!(differs, log.is_cell_corrupted(dr, a));
            }
        }
        // Deletions + survivors account for every clean row.
        let survivors: std::collections::HashSet<usize> =
            log.provenance.iter().filter(|p| !p.duplicate).map(|p| p.clean_row).collect();
        prop_assert_eq!(survivors.len() + log.deleted_clean_rows.len(), rows);
    }

    /// The audit report is structurally sound on arbitrary dirty data:
    /// confidences in [0, 1], findings above threshold, flagging
    /// consistent.
    #[test]
    fn audit_report_invariants(
        seed in 0u64..5000,
        rows in 60usize..250,
    ) {
        let schema = small_schema(&[4, 4, 3], false);
        let generator = TestDataGenerator::new(schema, 4, rows);
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generator.generate(&mut rng);
        let (dirty, _) = pollute(&b.clean, &PollutionConfig::standard(), &mut rng);
        let (model, report) = Auditor::default().run(&dirty).unwrap();
        prop_assert!(model.min_inst > 0.0);
        prop_assert_eq!(report.n_rows(), dirty.n_rows());
        let engine = dq_core::AuditEngine::new(model, dirty.schema().clone());
        let (_, confidences) = engine.scan_batch(&dirty, 0);
        prop_assert_eq!(confidences.len(), dirty.n_rows());
        for (row, &c) in confidences.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert_eq!(report.is_flagged(row), c >= report.min_confidence);
        }
        for f in &report.findings {
            prop_assert!(f.confidence >= report.min_confidence);
            prop_assert!(f.support > 0.0);
            prop_assert!(f.attr < dirty.n_cols());
            prop_assert!(f.row < dirty.n_rows());
        }
        // Findings are sorted by descending confidence.
        for w in report.findings.windows(2) {
            prop_assert!(w[0].confidence >= w[1].confidence);
        }
    }

    /// Rendering and re-parsing a rule is the identity (modulo
    /// whitespace): the parser accepts everything the renderer emits.
    #[test]
    fn rule_render_parse_round_trip(
        seed in 0u64..5000,
        n_rules in 1usize..10,
    ) {
        let schema = small_schema(&[4, 4, 5], true);
        let generator = TestDataGenerator::new(schema.clone(), n_rules, 10);
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generator.generate(&mut rng);
        for rule in &b.rules {
            let text = rule.render(&schema);
            let parsed = parse_rule(&schema, &text)
                .unwrap_or_else(|e| panic!("re-parsing `{text}`: {e}"));
            prop_assert_eq!(&parsed, rule, "{}", text);
        }
    }
}
