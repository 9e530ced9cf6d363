//! Scoring a detection/correction run against the pollution log
//! (sec. 4.3 of the paper).
//!
//! * **Detection**: the 2×2 matrix of truly-corrupted × flagged rows,
//!   summarized by *sensitivity* ("the ratio of the truly found errors
//!   by the number of records that have been corrupted") and
//!   *specificity* ("how many of the error free records have been
//!   marked as such").
//! * **Correction**: the 2×2 matrix of cell correctness before × after
//!   applying the proposed corrections, summarized by the paper's
//!   improvement measure `((c+d) − (b+d)) / (c+d)`.

use dq_core::{AuditReport, Correction};
use dq_pollute::PollutionLog;
use dq_stats::{ConfusionMatrix, CorrectionMatrix};
use dq_table::{AttrType, Table, Value};

/// Build the detection confusion matrix: every dirty row contributes
/// one observation (truly corrupted per the log × flagged per the
/// report). Rows deleted by the duplicator are absent from the dirty
/// table and do not contribute (a record-marking tool cannot flag
/// them).
pub fn score_detection(log: &PollutionLog, report: &AuditReport) -> ConfusionMatrix {
    assert_eq!(log.n_rows(), report.n_rows(), "log and report must describe the same dirty table");
    let mut m = ConfusionMatrix::default();
    for row in 0..log.n_rows() {
        m.record(log.is_row_corrupted(row), report.is_flagged(row));
    }
    m
}

/// Build the correction matrix over **cells**: for every cell of the
/// dirty table, was it correct before the proposed corrections and is
/// it correct after?
///
/// "Correct" means equal to the clean value (the logged `before` for
/// corrupted cells, the cell itself otherwise). Ordered attributes
/// count as corrected when the proposal lands within `tolerance_frac`
/// of the domain extent of the clean value — bin representatives can
/// restore the right region but almost never the exact number.
pub fn score_correction(
    log: &PollutionLog,
    dirty: &Table,
    corrections: &[Correction],
    tolerance_frac: f64,
) -> CorrectionMatrix {
    let schema = dirty.schema();
    let mut m = CorrectionMatrix::default();
    // Index corrections by (row, attr) for O(1) lookup.
    let mut fix: std::collections::HashMap<(usize, usize), Value> =
        std::collections::HashMap::with_capacity(corrections.len());
    for c in corrections {
        fix.insert((c.row, c.attr), c.new);
    }
    for row in 0..dirty.n_rows() {
        for attr in 0..dirty.n_cols() {
            let dirty_v = dirty.get(row, attr);
            let clean_v = log.clean_value_of(row, attr).unwrap_or(dirty_v);
            let after_v = fix.get(&(row, attr)).copied().unwrap_or(dirty_v);
            let correct_before = values_match(&schema.attr(attr).ty, &dirty_v, &clean_v, 0.0);
            let correct_after =
                values_match(&schema.attr(attr).ty, &after_v, &clean_v, tolerance_frac);
            m.record(correct_before, correct_after);
        }
    }
    m
}

/// Value agreement under the attribute type: NULLs match NULLs,
/// nominal codes match exactly, ordered values match within
/// `tolerance_frac` of the domain extent.
fn values_match(ty: &AttrType, a: &Value, b: &Value, tolerance_frac: f64) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        _ => match ty {
            AttrType::Nominal { .. } => a.sql_eq(b) == Some(true),
            AttrType::Numeric { min, max, .. } => ordered_match(a, b, (max - min) * tolerance_frac),
            AttrType::Date { min, max } => ordered_match(a, b, (max - min) as f64 * tolerance_frac),
        },
    }
}

fn ordered_match(a: &Value, b: &Value, tolerance: f64) -> bool {
    match (a.as_numeric(), b.as_numeric()) {
        (Some(x), Some(y)) => (x - y).abs() <= tolerance,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_pollute::{pollute, Polluter, PollutionConfig, PollutionStep};
    use dq_table::SchemaBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dirty_with_log() -> (Table, PollutionLog) {
        let schema = SchemaBuilder::new()
            .nominal("a", ["x", "y", "z"])
            .numeric("n", 0.0, 100.0)
            .build()
            .unwrap();
        let mut clean = Table::new(schema);
        for i in 0..100 {
            clean
                .push_row(&[Value::Nominal((i % 3) as u32), Value::Number((i % 50) as f64)])
                .unwrap();
        }
        let cfg = PollutionConfig {
            steps: vec![PollutionStep {
                polluter: Polluter::NullValue { attr: Some(0) },
                activation: 0.2,
            }],
            factor: 1.0,
        };
        pollute(&clean, &cfg, &mut StdRng::seed_from_u64(1))
    }

    /// A report over `n` rows with one finding on each of `rows`.
    fn report_flagging(rows: &[usize], n: usize) -> AuditReport {
        let finding = |row| dq_core::Finding {
            row,
            attr: 0,
            observed: Value::Null,
            proposed: Value::Nominal(0),
            confidence: 0.9,
            support: 10.0,
        };
        AuditReport::new(rows.iter().map(|&r| finding(r)).collect(), n, 0.8)
    }

    #[test]
    fn detection_matrix_counts_all_rows() {
        let (dirty, log) = dirty_with_log();
        let corrupted: Vec<usize> =
            (0..log.n_rows()).filter(|&r| log.is_row_corrupted(r)).collect();
        assert!(!corrupted.is_empty());
        // Perfect detector.
        let report = report_flagging(&corrupted, log.n_rows());
        let m = score_detection(&log, &report);
        assert_eq!(m.sensitivity(), Some(1.0));
        assert_eq!(m.specificity(), Some(1.0));
        assert_eq!(m.total() as usize, dirty.n_rows());
        // Blind detector.
        let report = report_flagging(&[], log.n_rows());
        let m = score_detection(&log, &report);
        assert_eq!(m.sensitivity(), Some(0.0));
        assert_eq!(m.specificity(), Some(1.0));
    }

    #[test]
    fn correction_matrix_rewards_true_fixes() {
        let (dirty, log) = dirty_with_log();
        // Correct every corrupted cell back to its clean value.
        let mut corrections = Vec::new();
        for c in &log.cells {
            corrections.push(dq_core::Correction {
                row: c.dirty_row,
                attr: c.attr,
                old: c.after,
                new: c.before,
                confidence: 1.0,
            });
        }
        let m = score_correction(&log, &dirty, &corrections, 0.05);
        assert_eq!(m.improvement(), Some(1.0), "all errors fixed: {m:?}");
        // No corrections: improvement 0.
        let m = score_correction(&log, &dirty, &[], 0.05);
        assert_eq!(m.improvement(), Some(0.0));
    }

    #[test]
    fn correction_matrix_punishes_breakage() {
        let (dirty, log) = dirty_with_log();
        // "Correct" a clean cell to garbage.
        let clean_row = (0..log.n_rows()).find(|&r| !log.is_row_corrupted(r)).unwrap();
        let breakage = dq_core::Correction {
            row: clean_row,
            attr: 0,
            old: dirty.get(clean_row, 0),
            new: Value::Nominal(2),
            confidence: 1.0,
        };
        let breakage = if dirty.get(clean_row, 0) == Value::Nominal(2) {
            dq_core::Correction { new: Value::Nominal(1), ..breakage }
        } else {
            breakage
        };
        let m = score_correction(&log, &dirty, &[breakage], 0.05);
        let improvement = m.improvement().unwrap();
        assert!(improvement < 0.0, "breaking a clean cell must score negative: {improvement}");
    }

    #[test]
    fn ordered_tolerance_is_respected() {
        let ty = AttrType::Numeric { min: 0.0, max: 100.0, integer: false };
        assert!(values_match(&ty, &Value::Number(52.0), &Value::Number(50.0), 0.05));
        assert!(!values_match(&ty, &Value::Number(60.0), &Value::Number(50.0), 0.05));
        assert!(!values_match(&ty, &Value::Null, &Value::Number(50.0), 0.05));
        assert!(values_match(&ty, &Value::Null, &Value::Null, 0.0));
    }

    #[test]
    #[should_panic(expected = "same dirty table")]
    fn mismatched_sizes_panic() {
        let (_, log) = dirty_with_log();
        let report = report_flagging(&[], 3);
        score_detection(&log, &report);
    }
}
