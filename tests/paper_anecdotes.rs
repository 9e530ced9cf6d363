//! The concrete numbers the paper reports, end-to-end through the
//! public API: the QUIS example rules and their error confidences
//! (sec. 6.2), and the error-confidence motivation examples
//! (sec. 5.2).

use data_audit::prelude::*;
use data_audit::quis::{attr, engine_schema, generate_quis, QuisConfig};
use data_audit::stats;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build the exact table behind the paper's two example rules:
/// `BRV = 404 → GBM = 901` on 16118 instances (one deviating) and
/// `KBM = 01 ∧ GBM = 901 → BRV = 501` on 9530 instances (one deviating).
fn paper_table() -> Table {
    let schema = engine_schema();
    let brv404 = 3u32;
    let brv501 = 5u32;
    let brv601 = 7u32;
    let gbm901 = 0u32;
    let gbm911 = 3u32;
    let gbm921 = 5u32;
    let kbm01 = 0u32;
    let kbm02 = 1u32;
    let kbm03 = 2u32;
    let mut t = Table::new(schema);
    let mut push = |brv: u32, gbm: u32, kbm: u32| {
        let rec = vec![
            Value::Nominal(brv),
            Value::Nominal(gbm),
            Value::Nominal(kbm),
            Value::Nominal(0),
            Value::Nominal(0),
            Value::Nominal(1),
            Value::Number(2000.0),
            Value::Date(9500),
        ];
        t.push_row(&rec).unwrap();
    };
    // The 404 family (GBM always 901, KBM varies over 02/03 so the
    // GBM tree cannot learn the dependency through KBM instead).
    for i in 0..16_117 {
        push(brv404, gbm901, if i % 2 == 0 { kbm02 } else { kbm03 });
    }
    // The famous deviation: BRV 404 with GBM 911.
    push(brv404, gbm911, kbm02);
    // The 501 family: KBM 01 ∧ GBM 901 ⇒ BRV 501.
    for _ in 0..9_529 {
        push(brv501, gbm901, kbm01);
    }
    // A second deviation for that rule: KBM 01 ∧ GBM 901 with BRV 404.
    push(brv404, gbm901, kbm01);
    // A third family so GBM actually varies (KBM overlaps the others).
    for i in 0..2_000 {
        push(brv601, gbm921, if i % 2 == 0 { kbm01 } else { kbm02 });
    }
    t
}

#[test]
fn quis_example_rules_score_the_paper_confidences() {
    let t = paper_table();
    let auditor = Auditor::default();
    let (model, report) = auditor.run(&t).unwrap();

    // "BRV = 404 → GBM = 901 … based on 16118 instances. One instance,
    // however, contradicts the rule … error confidence of 99,95% …
    // ranks it first in the sorted list of suspicious records."
    // A flagged record's overall confidence (Def. 8) is its best
    // finding's.
    let confidence = |row| report.best_finding_for(row).map_or(0.0, |f| f.confidence);
    let gbm_deviant = 16_117;
    assert!(report.is_flagged(gbm_deviant));
    assert!(confidence(gbm_deviant) > 0.999, "got {}", confidence(gbm_deviant));
    assert_eq!(report.findings[0].row, gbm_deviant, "must rank first");

    // "KBM = 01 ∧ GBM = 901 → BRV = 501 … relies on 9530 records,
    // results in a lower confidence measure" — lower than the first,
    // still above the 80% reporting bar.
    let brv_deviant = 16_117 + 1 + 9_529; // appended after the 501 family
    assert!(report.is_flagged(brv_deviant));
    let c = confidence(brv_deviant);
    assert!(c > 0.9 && c < confidence(gbm_deviant), "got {c}");

    // Both dependencies appear in the structure model.
    let rendered = model.render(t.schema());
    assert!(rendered.contains("brv = 404 → gbm = 901"), "model:\n{rendered}");
    assert!(
        rendered.contains("kbm = 01 → brv = 501") || rendered.contains("→ brv = 501"),
        "model:\n{rendered}"
    );
}

#[test]
fn error_confidence_prefers_the_papers_orderings() {
    // Sec. 5.2's two motivating pairs, through the public stats API.
    let n = 1000.0;
    let scale = |ps: &[f64]| ps.iter().map(|p| p * n).collect::<Vec<_>>();
    // 1 − P(c) fails on: P1 vs P2, class 0 observed.
    let p1 = scale(&[0.2, 0.2, 0.2, 0.1, 0.3]);
    let p2 = scale(&[0.2, 0.8, 0.0, 0.0, 0.0]);
    assert!(
        stats::error_confidence(&p2, 0, 0.95) > stats::error_confidence(&p1, 0, 0.95),
        "the error must be more apparent in the concentrated distribution"
    );
    // P(ĉ) alone fails on: Q1 vs Q2, class 0 observed.
    let q1 = scale(&[0.0, 0.1, 0.9]);
    let q2 = scale(&[0.1, 0.0, 0.9]);
    assert!(stats::error_confidence(&q1, 0, 0.95) > stats::error_confidence(&q2, 0, 0.95));
}

#[test]
fn synthetic_quis_audit_reproduces_the_62_figures() {
    // Scaled-down sec. 6.2: the suspicious-record share and the
    // top-ranked findings' verifiability.
    let mut rng = StdRng::seed_from_u64(62);
    let bench = generate_quis(&QuisConfig::default().with_rows(30_000), &mut rng);
    let auditor = Auditor::default();
    let (model, report) = auditor.run(&bench.dirty).unwrap();
    // The paper flags ~3% of records; allow a generous band.
    let share = report.n_suspicious() as f64 / bench.dirty.n_rows() as f64;
    assert!((0.005..0.10).contains(&share), "suspicious share {share}");
    // Top findings are overwhelmingly true errors.
    let top = report.top(20);
    let hits = top.iter().filter(|f| bench.log.is_row_corrupted(f.row)).count();
    assert!(hits * 10 >= top.len() * 7, "top-20 precision {hits}/20");
    // The engineered dependencies are rediscovered.
    let rendered = model.render(bench.dirty.schema());
    assert!(rendered.contains("→ gbm = 901") || rendered.contains("brv = 404"));
    // Power class is derivable from displacement: the model must carry
    // rules predicting `power`.
    assert!(model.models[attr::POWER].rules.len() > 1, "power-class structure missing");
}
