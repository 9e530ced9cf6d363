//! Proposed corrections (sec. 5.3).
//!
//! "We replace a suspicious value according to the prediction of the
//! classifier with the highest error confidence." Corrections are
//! proposed from an [`AuditReport`] and can be applied to a table
//! in-place; the resulting quality change is scored by `dq-eval`
//! against the pollution log with the paper's correction measure
//! (sec. 4.3).

use crate::report::AuditReport;
use dq_table::{AttrIdx, RowIdx, Table, TableError, Value};

/// One proposed replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct Correction {
    /// Target row.
    pub row: RowIdx,
    /// Target attribute.
    pub attr: AttrIdx,
    /// The suspicious value being replaced.
    pub old: Value,
    /// The proposed value.
    pub new: Value,
    /// Error confidence of the finding the proposal came from.
    pub confidence: f64,
}

/// Derive one correction per flagged row: the highest-confidence
/// finding wins (its classifier is "the classifier with the highest
/// error confidence" for that record).
///
/// The findings arrive ranked by descending confidence (with the same
/// tiebreaks `AuditReport::best_finding_for` resolves by), so after a
/// stable sort by row each row's *first* finding is its winner. Time is
/// O(findings · log findings) and memory O(findings), whatever the
/// number of audited rows.
pub fn propose_corrections(report: &AuditReport) -> Vec<Correction> {
    let mut out: Vec<Correction> = report
        .findings
        .iter()
        .map(|f| Correction {
            row: f.row,
            attr: f.attr,
            old: f.observed,
            new: f.proposed,
            confidence: f.confidence,
        })
        .collect();
    out.sort_by_key(|c| c.row);
    out.dedup_by_key(|c| c.row);
    out
}

/// Render a correction list as CSV (one row per proposed replacement,
/// values shown with the schema's labels) — the `dq detect
/// --corrections` output a quality engineer reviews before applying.
pub fn corrections_to_csv(corrections: &[Correction], schema: &dq_table::Schema) -> String {
    let mut out = String::from("row,attribute,old,new,confidence\n");
    for c in corrections {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            c.row,
            schema.attr(c.attr).name,
            schema.display_value(c.attr, &c.old),
            schema.display_value(c.attr, &c.new),
            c.confidence
        ));
    }
    out
}

/// Apply corrections to a table in place. Returns the number applied.
///
/// This is the non-interactive path; "the correction of outliers
/// should always be supervised by a quality engineer" — interactive
/// callers filter the list first.
pub fn apply_corrections(
    table: &mut Table,
    corrections: &[Correction],
) -> Result<usize, TableError> {
    for c in corrections {
        table.set(c.row, c.attr, c.new)?;
    }
    Ok(corrections.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Finding;
    use dq_table::SchemaBuilder;

    fn table() -> Table {
        let schema =
            SchemaBuilder::new().nominal("a", ["x", "y"]).nominal("b", ["x", "y"]).build().unwrap();
        let mut t = Table::new(schema);
        t.push_row(&[Value::Nominal(0), Value::Nominal(1)]).unwrap();
        t.push_row(&[Value::Nominal(1), Value::Nominal(0)]).unwrap();
        t
    }

    fn report() -> AuditReport {
        AuditReport::new(
            vec![
                Finding {
                    row: 0,
                    attr: 1,
                    observed: Value::Nominal(1),
                    proposed: Value::Nominal(0),
                    confidence: 0.9,
                    support: 100.0,
                },
                Finding {
                    row: 0,
                    attr: 0,
                    observed: Value::Nominal(0),
                    proposed: Value::Nominal(1),
                    confidence: 0.85,
                    support: 50.0,
                },
            ],
            2,
            0.8,
        )
    }

    #[test]
    fn one_correction_per_flagged_row_highest_confidence() {
        let cs = propose_corrections(&report());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].row, 0);
        assert_eq!(cs[0].attr, 1, "the 0.9-confidence finding wins");
        assert_eq!(cs[0].new, Value::Nominal(0));
    }

    #[test]
    fn corrections_apply_in_place() {
        let mut t = table();
        let cs = propose_corrections(&report());
        let n = apply_corrections(&mut t, &cs).unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.get(0, 1), Value::Nominal(0));
        assert_eq!(t.get(1, 0), Value::Nominal(1), "unflagged rows untouched");
    }

    #[test]
    fn corrections_render_as_csv() {
        let t = table();
        let cs = propose_corrections(&report());
        let csv = corrections_to_csv(&cs, t.schema());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "row,attribute,old,new,confidence");
        assert_eq!(lines[1], "0,b,y,x,0.9");
    }

    #[test]
    fn out_of_range_corrections_error() {
        let mut t = table();
        let bad = Correction {
            row: 99,
            attr: 0,
            old: Value::Null,
            new: Value::Nominal(0),
            confidence: 1.0,
        };
        assert!(apply_corrections(&mut t, &[bad]).is_err());
    }
}
