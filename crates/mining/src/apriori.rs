//! Apriori association-rule mining over single-relation records.
//!
//! Substrate for the Hipp et al. related-work comparator ("use scalable
//! algorithms for association rule induction and define a scoring that
//! rates deviations from these rules based on the confidence of the
//! violated rules", sec. 7). Items are `(attribute, code)` pairs over a
//! fully discretized view of the table — which also demonstrates the
//! limitation the paper points out: "association rules cannot directly
//! model dependencies between numerical attributes"; ordered attributes
//! only enter through equal-frequency bins.
//!
//! Rules have a **single-item consequent** — exactly the shape a data
//! auditor needs, because each violated rule then prescribes a value
//! for one attribute of the record.

use crate::dataset::ClassSpec;
use crate::error::MiningError;
use dq_table::{discretize_equal_frequency, AttrIdx, AttrType, Table, Value};
use std::collections::HashMap;

/// An item: one attribute carrying one code. Packed for cheap hashing.
pub type Item = u64;

/// Pack an `(attribute, code)` pair into an [`Item`].
#[inline]
fn item(attr: AttrIdx, code: u32) -> Item {
    ((attr as u64) << 32) | code as u64
}

/// Unpack an [`Item`] into its `(attribute, code)` pair.
#[inline]
pub fn item_parts(it: Item) -> (AttrIdx, u32) {
    ((it >> 32) as AttrIdx, (it & 0xFFFF_FFFF) as u32)
}

/// Configuration of the Apriori miner.
#[derive(Debug, Clone, PartialEq)]
pub struct AprioriConfig {
    /// Minimum itemset support as a fraction of the row count.
    pub min_support: f64,
    /// Minimum rule confidence.
    pub min_confidence: f64,
    /// Maximum itemset length (antecedent length + 1).
    pub max_len: usize,
    /// Equal-frequency bins for ordered attributes.
    pub bins: usize,
}

impl Default for AprioriConfig {
    fn default() -> Self {
        AprioriConfig { min_support: 0.05, min_confidence: 0.9, max_len: 4, bins: 8 }
    }
}

/// An association rule `antecedent → (attr = code)` with its support
/// count and confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationRule {
    /// Antecedent items, sorted.
    pub antecedent: Vec<Item>,
    /// Consequent attribute.
    pub attr: AttrIdx,
    /// Consequent code under the miner's coding.
    pub code: u32,
    /// Support count of the full itemset.
    pub support: f64,
    /// Rule confidence `supp(X ∪ {y}) / supp(X)`.
    pub confidence: f64,
}

/// The Apriori miner plus the attribute coding it used (needed to code
/// probe records consistently at audit time).
#[derive(Debug, Clone)]
pub struct Apriori {
    config: AprioriConfig,
    coders: Vec<ClassSpec>,
    rules: Vec<AssociationRule>,
    n_rows: usize,
}

impl Apriori {
    /// Mine association rules from `table`.
    pub fn mine(table: &Table, config: AprioriConfig) -> Result<Self, MiningError> {
        if !(0.0..=1.0).contains(&config.min_support) {
            return Err(MiningError::BadConfig("min_support must be in [0, 1]".into()));
        }
        if !(0.0..=1.0).contains(&config.min_confidence) {
            return Err(MiningError::BadConfig("min_confidence must be in [0, 1]".into()));
        }
        if config.max_len < 2 {
            return Err(MiningError::BadConfig("max_len must be at least 2".into()));
        }
        let coders: Vec<ClassSpec> = (0..table.n_cols())
            .map(|a| match &table.schema().attr(a).ty {
                AttrType::Nominal { labels } => ClassSpec::Nominal { card: labels.len() as u32 },
                _ => {
                    ClassSpec::Binned { binning: discretize_equal_frequency(table, a, config.bins) }
                }
            })
            .collect();

        // Code every row once: `transactions[r][a]` is the item of
        // attribute `a` in row `r`, or None for NULL.
        let n_rows = table.n_rows();
        let mut transactions: Vec<Vec<Option<Item>>> = Vec::with_capacity(n_rows);
        for r in 0..n_rows {
            let row: Vec<Option<Item>> = (0..table.n_cols())
                .map(|a| coders[a].code_of(&table.get(r, a)).map(|c| item(a, c)))
                .collect();
            transactions.push(row);
        }

        let min_count = (config.min_support * n_rows as f64).max(1.0);

        // Level 1.
        let mut counts: HashMap<Item, f64> = HashMap::new();
        for t in &transactions {
            for it in t.iter().flatten() {
                *counts.entry(*it).or_insert(0.0) += 1.0;
            }
        }
        let mut supports: HashMap<Vec<Item>, f64> = HashMap::new();
        let mut level: Vec<Vec<Item>> = Vec::new();
        for (it, c) in counts {
            if c >= min_count {
                supports.insert(vec![it], c);
                level.push(vec![it]);
            }
        }
        level.sort();

        // Levelwise expansion.
        let mut all_frequent: Vec<Vec<Item>> = level.clone();
        let mut k = 1;
        while !level.is_empty() && k < config.max_len {
            let candidates = join_level(&level);
            if candidates.is_empty() {
                break;
            }
            let mut cand_counts: Vec<f64> = vec![0.0; candidates.len()];
            for t in &transactions {
                for (i, cand) in candidates.iter().enumerate() {
                    if contains_all(t, cand) {
                        cand_counts[i] += 1.0;
                    }
                }
            }
            let mut next = Vec::new();
            for (cand, c) in candidates.into_iter().zip(cand_counts) {
                if c >= min_count {
                    supports.insert(cand.clone(), c);
                    next.push(cand);
                }
            }
            next.sort();
            all_frequent.extend(next.iter().cloned());
            level = next;
            k += 1;
        }

        // Rule generation: single-item consequents.
        let mut rules = Vec::new();
        for itemset in &all_frequent {
            if itemset.len() < 2 {
                continue;
            }
            let supp = supports[itemset];
            for (i, &consequent) in itemset.iter().enumerate() {
                let mut antecedent: Vec<Item> = itemset.clone();
                antecedent.remove(i);
                let Some(&ant_supp) = supports.get(&antecedent) else {
                    continue;
                };
                let confidence = supp / ant_supp;
                if confidence >= config.min_confidence {
                    let (attr, code) = item_parts(consequent);
                    rules.push(AssociationRule {
                        antecedent,
                        attr,
                        code,
                        support: supp,
                        confidence,
                    });
                }
            }
        }
        rules.sort_by(|a, b| {
            b.confidence.total_cmp(&a.confidence).then(b.support.total_cmp(&a.support))
        });
        Ok(Apriori { config, coders, rules, n_rows })
    }

    /// The mined rules, sorted by descending confidence.
    pub fn rules(&self) -> &[AssociationRule] {
        &self.rules
    }

    /// The configuration the rules were mined with.
    pub fn config(&self) -> &AprioriConfig {
        &self.config
    }

    /// Number of rows the rules were mined from.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Code a record under the miner's attribute coding, into a
    /// caller-provided buffer — the association auditor codes every
    /// row of the audited table, so its scan reuses one buffer instead
    /// of allocating per record.
    pub fn code_record_into(&self, record: &[Value], coded: &mut Vec<Option<Item>>) {
        coded.clear();
        coded.extend(
            record.iter().enumerate().map(|(a, v)| self.coders[a].code_of(v).map(|c| item(a, c))),
        );
    }

    /// Iterate over the rules the coded record violates: its
    /// antecedent holds but the consequent attribute carries a
    /// different, non-NULL value.
    pub fn violated<'a>(
        &'a self,
        coded: &'a [Option<Item>],
    ) -> impl Iterator<Item = &'a AssociationRule> {
        self.rules.iter().filter(move |r| {
            contains_all(coded, &r.antecedent)
                && match coded[r.attr] {
                    Some(observed) => item_parts(observed).1 != r.code,
                    None => false,
                }
        })
    }
}

/// Does the coded transaction contain every item of `set`?
#[inline]
fn contains_all(transaction: &[Option<Item>], set: &[Item]) -> bool {
    set.iter().all(|&it| {
        let (attr, _) = item_parts(it);
        transaction[attr] == Some(it)
    })
}

/// Apriori candidate generation: join sorted k-itemsets sharing their
/// first k−1 items; keep joins whose items come from distinct
/// attributes (one record can never hold two values of one attribute).
fn join_level(level: &[Vec<Item>]) -> Vec<Vec<Item>> {
    let mut out = Vec::new();
    for i in 0..level.len() {
        for j in (i + 1)..level.len() {
            let (a, b) = (&level[i], &level[j]);
            if a[..a.len() - 1] != b[..b.len() - 1] {
                break; // sorted: once prefixes diverge, later ones do too
            }
            let last_a = *a.last().expect("non-empty itemset");
            let last_b = *b.last().expect("non-empty itemset");
            if item_parts(last_a).0 == item_parts(last_b).0 {
                continue; // same attribute twice
            }
            let mut cand = a.clone();
            cand.push(last_b);
            cand.sort_unstable();
            // Prune: all (k)-subsets must be frequent. The two parents
            // are; checking the rest needs a lookup structure — the
            // level is sorted, so binary search suffices.
            let all_subsets_frequent = (0..cand.len() - 2).all(|drop| {
                let mut sub = cand.clone();
                sub.remove(drop);
                level.binary_search(&sub).is_ok()
            });
            if all_subsets_frequent {
                out.push(cand);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_table::{SchemaBuilder, Table};

    /// BRV=404 always co-occurs with GBM=901 (one violation), plus an
    /// independent noise attribute.
    fn quis_like_table() -> Table {
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .nominal("noise", ["a", "b", "c"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..200 {
            let brv = (i % 2) as u32;
            let gbm = brv; // 404↔901, 501↔911
            t.push_row(&[Value::Nominal(brv), Value::Nominal(gbm), Value::Nominal((i % 3) as u32)])
                .unwrap();
        }
        // One record violating BRV=404 → GBM=901.
        t.push_row(&[Value::Nominal(0), Value::Nominal(1), Value::Nominal(0)]).unwrap();
        t
    }

    #[test]
    fn mines_the_dependency() {
        let t = quis_like_table();
        let ap = Apriori::mine(&t, AprioriConfig::default()).unwrap();
        let found = ap
            .rules()
            .iter()
            .any(|r| r.antecedent == vec![item(0, 0)] && r.attr == 1 && r.code == 0);
        assert!(found, "BRV=404 → GBM=901 must be mined; got {:?}", ap.rules());
    }

    #[test]
    fn violation_scoring() {
        let t = quis_like_table();
        let ap = Apriori::mine(&t, AprioriConfig::default()).unwrap();
        let mut coded = Vec::new();
        ap.code_record_into(&t.row(0), &mut coded);
        assert_eq!(ap.violated(&coded).count(), 0);
        // The deviating last record violates the rule.
        ap.code_record_into(&t.row(t.n_rows() - 1), &mut coded);
        let max = ap.violated(&coded).map(|r| r.confidence).fold(0.0, f64::max);
        assert!(max > 0.9 && max <= 1.0);
    }

    #[test]
    fn nulls_do_not_violate() {
        let t = quis_like_table();
        let ap = Apriori::mine(&t, AprioriConfig::default()).unwrap();
        let mut coded = Vec::new();
        ap.code_record_into(&[Value::Nominal(0), Value::Null, Value::Null], &mut coded);
        assert_eq!(ap.violated(&coded).count(), 0);
    }

    #[test]
    fn min_support_filters_rare_itemsets() {
        let t = quis_like_table();
        let strict =
            Apriori::mine(&t, AprioriConfig { min_support: 0.9, ..AprioriConfig::default() })
                .unwrap();
        // No single value covers 90% of this table.
        assert!(strict.rules().is_empty());
        let lax = Apriori::mine(&t, AprioriConfig::default()).unwrap();
        assert!(!lax.rules().is_empty());
    }

    #[test]
    fn numeric_attributes_enter_via_bins() {
        let schema =
            SchemaBuilder::new().nominal("c", ["x", "y"]).numeric("n", 0.0, 100.0).build().unwrap();
        let mut t = Table::new(schema);
        for i in 0..100 {
            // c = x ⟺ n < 50.
            let c = (i % 2) as u32;
            let n = if c == 0 { (i % 50) as f64 } else { 50.0 + (i % 50) as f64 };
            t.push_row(&[Value::Nominal(c), Value::Number(n)]).unwrap();
        }
        let ap = Apriori::mine(
            &t,
            AprioriConfig { bins: 2, min_confidence: 0.8, ..AprioriConfig::default() },
        )
        .unwrap();
        assert!(
            ap.rules().iter().any(|r| r.attr == 0 || item_parts(r.antecedent[0]).0 == 0),
            "expected rules across the nominal/binned boundary"
        );
    }

    #[test]
    fn rules_sorted_by_confidence() {
        let t = quis_like_table();
        let ap =
            Apriori::mine(&t, AprioriConfig { min_confidence: 0.5, ..AprioriConfig::default() })
                .unwrap();
        for w in ap.rules().windows(2) {
            assert!(w[0].confidence >= w[1].confidence);
        }
    }

    #[test]
    fn config_validation() {
        let t = quis_like_table();
        for bad in [
            AprioriConfig { min_support: -0.1, ..AprioriConfig::default() },
            AprioriConfig { min_confidence: 1.5, ..AprioriConfig::default() },
            AprioriConfig { max_len: 1, ..AprioriConfig::default() },
        ] {
            assert!(Apriori::mine(&t, bad).is_err());
        }
    }

    #[test]
    fn item_packing_round_trips() {
        let it = item(7, 42);
        assert_eq!(item_parts(it), (7, 42));
        let it = item(0, u32::MAX);
        assert_eq!(item_parts(it), (0, u32::MAX));
    }
}
