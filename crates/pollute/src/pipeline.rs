//! The pollution pipeline: apply a suite of polluters, each with an
//! activation probability, to a clean table.
//!
//! "Components in the test environment, each parameterized with an
//! activation probability, simulate the strategies … of different
//! forms of data pollution" (sec. 4.2). The common **pollution factor**
//! scales all activation probabilities at once — the x-axis of
//! Figure 5.

use crate::log::PollutionLog;
use crate::polluter::{duplicator_action, Polluter, RowAction};
use dq_stats::DistributionSpec;
use dq_table::{Table, Value};
use rand::Rng;

/// One step of the pipeline: a polluter plus its activation
/// probability.
#[derive(Debug, Clone, PartialEq)]
pub struct PollutionStep {
    /// The polluter.
    pub polluter: Polluter,
    /// Per-record activation probability (before the factor).
    pub activation: f64,
}

/// A full pollution suite.
#[derive(Debug, Clone, PartialEq)]
pub struct PollutionConfig {
    /// The steps, applied in order per record.
    pub steps: Vec<PollutionStep>,
    /// Common multiplier on all activation probabilities (Figure 5's
    /// pollution factor). Effective probabilities are clamped to
    /// `[0, 1]`.
    pub factor: f64,
}

impl PollutionConfig {
    /// An empty suite (no pollution).
    pub fn none() -> Self {
        PollutionConfig { steps: Vec::new(), factor: 1.0 }
    }

    /// The default five-polluter suite used by the experiments: "we …
    /// apply a variety of pollution procedures with different
    /// activation probabilities". Random attributes, wrong values drawn
    /// uniformly, limiter cutting the outer 10% tails, occasional
    /// duplicates with a 30% delete share.
    pub fn standard() -> Self {
        PollutionConfig {
            steps: vec![
                PollutionStep {
                    polluter: Polluter::WrongValue { attr: None, dist: DistributionSpec::Uniform },
                    activation: 0.020,
                },
                PollutionStep { polluter: Polluter::NullValue { attr: None }, activation: 0.012 },
                PollutionStep {
                    polluter: Polluter::Limiter { attr: None, lower_frac: 0.1, upper_frac: 0.9 },
                    activation: 0.010,
                },
                PollutionStep { polluter: Polluter::Switcher { attrs: None }, activation: 0.006 },
                PollutionStep {
                    polluter: Polluter::Duplicator { p_delete: 0.3 },
                    activation: 0.004,
                },
            ],
            factor: 1.0,
        }
    }

    /// The suite with a different pollution factor (builder style).
    pub fn with_factor(mut self, factor: f64) -> Self {
        self.factor = factor;
        self
    }
}

/// Pollute `clean`, returning the dirty table and the ground-truth log.
///
/// Each clean record passes every step in order; cell polluters mutate
/// it in place, the duplicator decides whether it is emitted once,
/// twice (second copy flagged as the error) or not at all.
pub fn pollute<R: Rng + ?Sized>(
    clean: &Table,
    config: &PollutionConfig,
    rng: &mut R,
) -> (Table, PollutionLog) {
    let mut log = PollutionLog::default();
    let dirty = pollute_chunk(clean, 0, config, &mut log, rng, &mut Vec::new());
    (dirty, log)
}

/// The chunk-at-a-time pollution core [`pollute`] (one chunk covering
/// the whole table) and [`crate::PolluteStream`] (one call per source
/// batch) share: pollute the rows of `clean` — globally rows
/// `clean_row_offset..clean_row_offset + clean.n_rows()` of the
/// logical relation — appending to a shared `log` whose dirty-row and
/// clean-row indices stay global (the same offset merge
/// `AuditEngine::detect` applies to finding rows). Returns the dirty rows
/// this chunk contributes, in order.
///
/// `copies` is refilled with one entry per returned dirty row:
/// `Some(r)` when the row is a copy of row `r` of `clean` that no cell
/// polluter activated on (kept or duplicated), `None` when some cell
/// polluter did. An activated polluter whose changes cancel out still
/// counts as a touch: the net comparison uses `sql_eq`, under which
/// `0.0` equals `-0.0`, yet the two render differently.
///
/// The RNG is consumed strictly in clean-row order, so chunking never
/// changes the byte stream: concatenating the returned chunks equals
/// an unchunked [`pollute`] over the concatenated input. A row's
/// record is built only when its first cell polluter activates, which
/// draws nothing from the RNG.
pub(crate) fn pollute_chunk<R: Rng + ?Sized>(
    clean: &Table,
    clean_row_offset: usize,
    config: &PollutionConfig,
    log: &mut PollutionLog,
    rng: &mut R,
    copies: &mut Vec<Option<usize>>,
) -> Table {
    let schema = clean.schema();
    let mut dirty = Table::with_capacity(schema.clone(), clean.n_rows());
    copies.clear();
    let mut record: Vec<Value> = Vec::with_capacity(clean.n_cols());
    for r in 0..clean.n_rows() {
        let mut touched = false;
        let mut action = RowAction::Keep;
        let mut changes: Vec<(usize, Value, Value, crate::polluter::PolluterKind)> = Vec::new();
        for step in &config.steps {
            let p = (step.activation * config.factor).clamp(0.0, 1.0);
            if p <= 0.0 || rng.gen::<f64>() >= p {
                continue;
            }
            match &step.polluter {
                Polluter::Duplicator { p_delete } => {
                    // Last duplicator activation wins; duplicate+delete
                    // on one record collapses to delete.
                    action = match (action, duplicator_action(*p_delete, rng)) {
                        (RowAction::Delete, _) | (_, RowAction::Delete) => RowAction::Delete,
                        _ => RowAction::Duplicate,
                    };
                }
                other => {
                    if !touched {
                        clean.row_into(r, &mut record);
                        touched = true;
                    }
                    for (attr, before, after) in other.apply_cells(schema, &mut record, rng) {
                        changes.push((attr, before, after, other.kind()));
                    }
                }
            }
        }
        let emitted = match action {
            RowAction::Delete => {
                log.log_deletion(clean_row_offset + r);
                continue;
            }
            RowAction::Keep => 1,
            RowAction::Duplicate => 2,
        };
        if !touched {
            for copy in 0..emitted {
                log.push_row(clean_row_offset + r, copy == 1);
                dirty.push_row_from(clean, r).expect("a chunk copies rows of its own schema");
                copies.push(Some(r));
            }
            continue;
        }
        // The ground truth is the *net* deviation of the dirty record
        // from the clean one: when several polluters touch a cell they
        // can cancel out (a wrong value swapped back by the switcher),
        // and a cancelled cell is not an error. Attribute each net
        // change to the last polluter that touched the cell.
        let mut net: Vec<(usize, Value, Value, crate::polluter::PolluterKind)> = Vec::new();
        for (attr, new_v) in record.iter().enumerate() {
            let old_v = clean.get(r, attr);
            let differs =
                old_v.sql_eq(new_v) != Some(true) && !(old_v.is_null() && new_v.is_null());
            if differs {
                let kind = changes
                    .iter()
                    .rev()
                    .find(|&&(a, ..)| a == attr)
                    .map(|&(.., k)| k)
                    .expect("a differing cell was touched by some polluter");
                net.push((attr, old_v, *new_v, kind));
            }
        }
        // The copy a duplicate adds carries the same cell corruptions.
        for copy in 0..emitted {
            let dirty_row = log.push_row(clean_row_offset + r, copy == 1);
            dirty.push_row_lenient(&record).expect("polluted record keeps cell kinds");
            copies.push(None);
            for &(attr, before, after, kind) in &net {
                log.log_cell(dirty_row, attr, kind, before, after);
            }
        }
    }
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polluter::PolluterKind;
    use dq_table::SchemaBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn clean_table(n: usize) -> Table {
        let schema = SchemaBuilder::new()
            .nominal("a", ["x", "y", "z"])
            .nominal("b", ["x", "y", "z"])
            .numeric("n", 0.0, 100.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(&[
                Value::Nominal((i % 3) as u32),
                Value::Nominal(((i + 1) % 3) as u32),
                Value::Number((i % 100) as f64),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn no_pollution_is_identity() {
        let clean = clean_table(50);
        let mut rng = StdRng::seed_from_u64(1);
        let (dirty, log) = pollute(&clean, &PollutionConfig::none(), &mut rng);
        assert_eq!(dirty.n_rows(), 50);
        assert_eq!(log.n_corrupted_rows(), 0);
        for r in 0..50 {
            assert_eq!(dirty.row(r), clean.row(r));
        }
    }

    #[test]
    fn log_matches_table_diff() {
        let clean = clean_table(500);
        let cfg = PollutionConfig::standard().with_factor(3.0);
        let mut rng = StdRng::seed_from_u64(2);
        let (dirty, log) = pollute(&clean, &cfg, &mut rng);
        assert_eq!(log.n_rows(), dirty.n_rows());
        // Every logged cell corruption is observable in the dirty
        // table, and every differing cell is logged (for non-duplicate
        // rows).
        for (dr, prov) in log.provenance.iter().enumerate() {
            for a in 0..clean.n_cols() {
                let clean_v = clean.get(prov.clean_row, a);
                let dirty_v = dirty.get(dr, a);
                let differs = clean_v.sql_eq(&dirty_v) != Some(true)
                    && !(clean_v.is_null() && dirty_v.is_null());
                assert_eq!(
                    differs,
                    log.is_cell_corrupted(dr, a),
                    "row {dr} attr {a}: diff {differs} but log disagrees"
                );
            }
        }
        assert!(log.n_corrupted_rows() > 0, "factor 3 must corrupt something");
    }

    #[test]
    fn duplicates_and_deletions_change_row_count() {
        let clean = clean_table(2000);
        let cfg = PollutionConfig {
            steps: vec![PollutionStep {
                polluter: Polluter::Duplicator { p_delete: 0.5 },
                activation: 0.2,
            }],
            factor: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let (dirty, log) = pollute(&clean, &cfg, &mut rng);
        let dups = log.provenance.iter().filter(|p| p.duplicate).count();
        let dels = log.deleted_clean_rows.len();
        assert!(dups > 100, "dups {dups}");
        assert!(dels > 100, "dels {dels}");
        assert_eq!(dirty.n_rows(), 2000 - dels + dups);
        // Duplicate rows equal their source row.
        for (dr, prov) in log.provenance.iter().enumerate() {
            if prov.duplicate {
                assert_eq!(dirty.row(dr), clean.row(prov.clean_row));
            }
        }
    }

    #[test]
    fn factor_scales_corruption() {
        let clean = clean_table(2000);
        let mut rng = StdRng::seed_from_u64(4);
        let (_, log1) = pollute(&clean, &PollutionConfig::standard(), &mut rng);
        let (_, log4) = pollute(&clean, &PollutionConfig::standard().with_factor(4.0), &mut rng);
        assert!(
            log4.n_corrupted_rows() > 2 * log1.n_corrupted_rows(),
            "factor 4: {} vs factor 1: {}",
            log4.n_corrupted_rows(),
            log1.n_corrupted_rows()
        );
    }

    #[test]
    fn targeted_pollution_hits_the_right_attribute() {
        let clean = clean_table(300);
        let cfg = PollutionConfig {
            steps: vec![PollutionStep {
                polluter: Polluter::NullValue { attr: Some(2) },
                activation: 1.0,
            }],
            factor: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let (dirty, log) = pollute(&clean, &cfg, &mut rng);
        assert_eq!(dirty.count_where(2, |v| v.is_null()), 300);
        assert_eq!(log.cells.len(), 300);
        assert!(log.cells.iter().all(|c| c.attr == 2 && c.polluter == PolluterKind::NullValue));
        // Clean values recoverable from the log.
        assert_eq!(log.clean_value_of(0, 2), Some(clean.get(0, 2)));
    }

    #[test]
    fn pollution_is_reproducible() {
        let clean = clean_table(400);
        let cfg = PollutionConfig::standard().with_factor(2.0);
        let (d1, l1) = pollute(&clean, &cfg, &mut StdRng::seed_from_u64(6));
        let (d2, l2) = pollute(&clean, &cfg, &mut StdRng::seed_from_u64(6));
        assert_eq!(d1.n_rows(), d2.n_rows());
        assert_eq!(l1.cells.len(), l2.cells.len());
        for r in 0..d1.n_rows() {
            assert_eq!(d1.row(r), d2.row(r));
        }
    }

    #[test]
    fn empty_table_pollutes_to_empty() {
        let schema: Arc<_> = SchemaBuilder::new().nominal("a", ["x"]).build().unwrap();
        let clean = Table::new(schema);
        let mut rng = StdRng::seed_from_u64(7);
        let (dirty, log) = pollute(&clean, &PollutionConfig::standard(), &mut rng);
        assert_eq!(dirty.n_rows(), 0);
        assert_eq!(log.n_rows(), 0);
    }
}
