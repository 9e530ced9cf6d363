//! Integration of the Figure 2 test environment across crates:
//! generate (dq-tdg) → pollute (dq-pollute) → audit (dq-core) →
//! score (dq-eval), all through the umbrella crate's public API.

use data_audit::core::AuditConfig;
use data_audit::eval::TestEnvironment;
use data_audit::prelude::*;

fn environment() -> TestEnvironment {
    let schema = SchemaBuilder::new()
        .nominal("a", ["v1", "v2", "v3", "v4"])
        .nominal("b", ["v1", "v2", "v3", "v4"])
        .nominal("c", ["w1", "w2", "w3", "w4", "w5"])
        .numeric("x", 0.0, 500.0)
        .date_ymd("d", (2000, 1, 1), (2004, 12, 31))
        .build()
        .unwrap();
    TestEnvironment {
        generator: TestDataGenerator::new(schema, 15, 4000),
        pollution: PollutionConfig::standard(),
        audit: AuditConfig::default(),
    }
}

#[test]
fn full_pipeline_accounts_for_every_row() {
    let r = environment().run(1).unwrap();
    // Row accounting holds across all four stages.
    assert_eq!(r.log.n_rows(), r.dirty.n_rows());
    assert_eq!(r.report.n_rows(), r.dirty.n_rows());
    assert_eq!(r.detection.total() as usize, r.dirty.n_rows());
    // The confusion matrix's positive side equals the log's count.
    assert_eq!((r.detection.tp + r.detection.fn_) as usize, r.log.n_corrupted_rows());
}

#[test]
fn flagged_rows_match_report_confidences() {
    let env = environment();
    let r = env.run(2).unwrap();
    // Induction is deterministic: re-inducing on the audited table
    // yields the run's model, whose per-row confidences decide flags.
    let model = Auditor::new(env.audit.clone()).induce(&r.dirty).unwrap();
    let (_, confidences) =
        AuditEngine::new(model, r.dirty.schema().clone()).scan_batch(&r.dirty, 0);
    assert_eq!(confidences.len(), r.report.n_rows());
    for (row, c) in confidences.iter().enumerate() {
        assert_eq!(r.report.is_flagged(row), *c >= r.report.min_confidence, "row {row}");
    }
    // Every finding's row reaches the minimal confidence.
    for f in &r.report.findings {
        assert!(f.confidence >= r.report.min_confidence);
        assert!(r.report.is_flagged(f.row));
    }
}

#[test]
fn audit_quality_is_in_the_paper_regime() {
    let r = environment().run(3).unwrap();
    assert!(r.specificity() > 0.95, "specificity {}", r.specificity());
    assert!(r.sensitivity() > 0.0, "sensitivity {}", r.sensitivity());
    assert!(
        r.sensitivity() < 0.9,
        "data auditing can only find deviations from regularities; {} is implausible",
        r.sensitivity()
    );
}

#[test]
fn environment_is_deterministic() {
    let env = environment();
    let a = env.run(4).unwrap();
    let b = env.run(4).unwrap();
    assert_eq!(a.detection, b.detection);
    assert_eq!(a.correction, b.correction);
    assert_eq!(a.n_model_rules, b.n_model_rules);
}

#[test]
fn pollution_factor_increases_prevalence() {
    let env = environment();
    let light = env.run(5).unwrap();
    let heavy = TestEnvironment { pollution: PollutionConfig::standard().with_factor(4.0), ..env }
        .run(5)
        .unwrap();
    assert!(heavy.log.prevalence() > 2.0 * light.log.prevalence());
}

#[test]
fn corrections_never_target_unflagged_rows() {
    let r = environment().run(6).unwrap();
    let corrections = propose_corrections(&r.report);
    for c in &corrections {
        assert!(r.report.is_flagged(c.row));
        assert!(c.confidence >= r.report.min_confidence);
    }
    // One correction per flagged row at most.
    let mut rows: Vec<usize> = corrections.iter().map(|c| c.row).collect();
    rows.sort_unstable();
    rows.dedup();
    assert_eq!(rows.len(), corrections.len());
}
