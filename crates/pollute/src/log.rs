//! The pollution log: the ground truth every benchmark run scores
//! against.
//!
//! The test environment "pollutes this data in a controlled and logged
//! procedure … and evaluates its performance by comparing the
//! deviations of the dirty from the clean database with the detected
//! errors" (sec. 4). The log keeps cell-level corruption records plus
//! row provenance that survives duplication and deletion.

use crate::polluter::PolluterKind;
use dq_table::{AttrIdx, RowIdx, Schema, Value};

/// Header line of the cell-corruption CSV rendering
/// ([`PollutionLog::render_cells_csv`]) — the `pollution-log.csv`
/// format `dq generate` emits.
pub const CELLS_CSV_HEADER: &str = "dirty_row,attribute,polluter,before,after\n";

/// Where a dirty row came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowProvenance {
    /// The clean row this dirty row descends from.
    pub clean_row: RowIdx,
    /// `true` if this row is the extra copy made by the duplicator
    /// (the copy itself is the data error, not the original).
    pub duplicate: bool,
}

/// One logged cell corruption.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCorruption {
    /// Row index in the *dirty* table.
    pub dirty_row: RowIdx,
    /// Corrupted attribute.
    pub attr: AttrIdx,
    /// Which polluter struck.
    pub polluter: PolluterKind,
    /// Cell value before corruption.
    pub before: Value,
    /// Cell value after corruption (must differ from `before`).
    pub after: Value,
}

/// The full log of one pollution run.
#[derive(Debug, Clone, Default)]
pub struct PollutionLog {
    /// Provenance of every dirty row (indexed by dirty row).
    pub provenance: Vec<RowProvenance>,
    /// All cell corruptions, in application order.
    pub cells: Vec<CellCorruption>,
    /// Clean rows the duplicator deleted (absent from the dirty table;
    /// they cannot be flagged by a record-marking audit and are
    /// excluded from the record-level confusion matrix).
    pub deleted_clean_rows: Vec<RowIdx>,
    /// Per dirty row: was it corrupted (any cell event or duplicate)?
    corrupted: Vec<bool>,
    /// Global dirty-row index of this log's first row. Zero except for
    /// logs continuing a resumed stream (see
    /// [`PollutionLog::with_base`]).
    base: RowIdx,
}

impl PollutionLog {
    /// An empty log whose first dirty row has global index `base` —
    /// the continuation log of a resumed pollution stream whose
    /// previous incarnation already committed `base` dirty rows. Cell
    /// events carry global `dirty_row` indices, so a streamed
    /// `pollution-log.csv` concatenates identically to an
    /// uninterrupted run's. Local accounting (`n_rows`, `prevalence`,
    /// the scoring APIs) covers only this incarnation's rows; scoring
    /// assumes a base of zero.
    pub fn with_base(base: RowIdx) -> Self {
        PollutionLog { base, ..PollutionLog::default() }
    }

    pub(crate) fn push_row(&mut self, clean_row: RowIdx, duplicate: bool) -> RowIdx {
        self.provenance.push(RowProvenance { clean_row, duplicate });
        self.corrupted.push(duplicate);
        self.base + self.provenance.len() - 1
    }

    pub(crate) fn log_cell(
        &mut self,
        dirty_row: RowIdx,
        attr: AttrIdx,
        polluter: PolluterKind,
        before: Value,
        after: Value,
    ) {
        debug_assert!(before.sql_eq(&after) != Some(true), "corruption must change the value");
        self.cells.push(CellCorruption { dirty_row, attr, polluter, before, after });
        self.corrupted[dirty_row - self.base] = true;
    }

    pub(crate) fn log_deletion(&mut self, clean_row: RowIdx) {
        self.deleted_clean_rows.push(clean_row);
    }

    /// `true` if the dirty row carries any corruption (cell event or
    /// duplicate provenance). `dirty_row` is a global index (offset by
    /// the base for continuation logs).
    pub fn is_row_corrupted(&self, dirty_row: RowIdx) -> bool {
        self.corrupted[dirty_row - self.base]
    }

    /// Number of corrupted rows in the dirty table.
    pub fn n_corrupted_rows(&self) -> usize {
        self.corrupted.iter().filter(|&&c| c).count()
    }

    /// Number of rows in the dirty table.
    pub fn n_rows(&self) -> usize {
        self.provenance.len()
    }

    /// Was this specific cell corrupted?
    pub fn is_cell_corrupted(&self, dirty_row: RowIdx, attr: AttrIdx) -> bool {
        self.cells.iter().any(|c| c.dirty_row == dirty_row && c.attr == attr)
    }

    /// The clean value of a cell (what a perfect correction would
    /// restore): the logged `before` if the cell was corrupted.
    pub fn clean_value_of(&self, dirty_row: RowIdx, attr: AttrIdx) -> Option<Value> {
        self.cells.iter().find(|c| c.dirty_row == dirty_row && c.attr == attr).map(|c| c.before)
    }

    /// Prevalence: fraction of dirty rows that are corrupted.
    pub fn prevalence(&self) -> f64 {
        if self.provenance.is_empty() {
            0.0
        } else {
            self.n_corrupted_rows() as f64 / self.provenance.len() as f64
        }
    }

    /// Render cell corruptions `cells[from..]` as CSV lines (no
    /// header; see [`CELLS_CSV_HEADER`]) — the `pollution-log.csv`
    /// body `dq generate` writes. Rendering from a cursor lets a
    /// checkpointed job stream the log incrementally and still
    /// concatenate byte-identically to a one-shot rendering.
    pub fn render_cells_csv(&self, schema: &Schema, from: usize, out: &mut String) {
        use std::fmt::Write as _;
        for c in &self.cells[from..] {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                c.dirty_row,
                schema.attr(c.attr).name,
                c.polluter,
                schema.display_value(c.attr, &c.before),
                schema.display_value(c.attr, &c.after),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_accounting() {
        let mut log = PollutionLog::default();
        let r0 = log.push_row(0, false);
        let r1 = log.push_row(1, false);
        let r2 = log.push_row(1, true); // duplicate of clean row 1
        assert_eq!((r0, r1, r2), (0, 1, 2));
        assert!(!log.is_row_corrupted(0));
        assert!(log.is_row_corrupted(2), "duplicates are corrupted rows");
        log.log_cell(0, 3, PolluterKind::WrongValue, Value::Nominal(1), Value::Nominal(2));
        assert!(log.is_row_corrupted(0));
        assert_eq!(log.n_corrupted_rows(), 2);
        assert_eq!(log.n_rows(), 3);
        assert!((log.prevalence() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cell_lookup_and_clean_value() {
        let mut log = PollutionLog::default();
        log.push_row(0, false);
        log.log_cell(0, 1, PolluterKind::NullValue, Value::Number(5.0), Value::Null);
        assert!(log.is_cell_corrupted(0, 1));
        assert!(!log.is_cell_corrupted(0, 0));
        assert_eq!(log.clean_value_of(0, 1), Some(Value::Number(5.0)));
        assert_eq!(log.clean_value_of(0, 0), None);
    }

    #[test]
    fn deletions_are_tracked_separately() {
        let mut log = PollutionLog::default();
        log.push_row(0, false);
        log.log_deletion(1);
        assert_eq!(log.deleted_clean_rows, vec![1]);
        assert_eq!(log.n_rows(), 1);
    }

    #[test]
    fn empty_log_prevalence() {
        assert_eq!(PollutionLog::default().prevalence(), 0.0);
    }
}
