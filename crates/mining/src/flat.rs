//! Flattened decision-tree evaluation — the detection hot path's code
//! layout.
//!
//! Deviation detection classifies every record against every
//! attribute's tree ("new data can be checked for deviations and
//! loaded quickly", sec. 5), so the tree walk is executed `rows ×
//! attributes` times. The pointer-chasing [`Node`] representation
//! (`Vec<Node>` children behind separate heap allocations, three
//! `Vec<f64>` payloads per split) is fine for induction and
//! serialization but wasteful to *evaluate*. [`FlatTree`] compiles a
//! [`DecisionTree`] once — at model induction or load time — into:
//!
//! * a contiguous node arena (`Vec<FlatNode>`, children of one split
//!   stored adjacently and addressed by index, no `Box`es);
//! * one shared leaf-count arena and one shared fraction arena
//!   (`Vec<f64>` each), indexed by offset.
//!
//! [`FlatTree::classify_cells`] is the one evaluator: it reads a row's
//! [`TypedCell`]s (fetched once per row by
//! [`dq_table::Table::typed_row_into`] and shared by every attribute's
//! tree) — no per-row `Vec<Value>` materialization — and performs
//! **exactly the floating-point operations, in exactly the order**, of
//! [`Node`]-tree classification, so audit reports stay byte-identical
//! at every chunk size and thread count. The boxed tree's
//! [`Classifier::predict`] is the reference it is tested against.

use crate::classifier::Classifier;
use crate::tree::{DecisionTree, Node, SplitKind, MIN_WEIGHT};
use dq_table::TypedCell;

/// One node of the flattened tree. Children of a split occupy the
/// arena slots `children_at .. children_at + n_children` in branch
/// order; a split's missing-value routing fractions occupy the
/// fraction arena at `frac_at` with the same layout.
#[derive(Debug, Clone, Copy)]
enum FlatNode {
    /// An enabled leaf: its class counts live at `counts_at` in the
    /// count arena.
    Leaf {
        /// Offset into the count arena.
        counts_at: u32,
    },
    /// A leaf deleted from the structure model — contributes nothing.
    DisabledLeaf,
    /// `attr`'s nominal code selects among `n_children` children.
    NominalSplit {
        /// Tested base attribute.
        attr: u32,
        /// Number of children (= the attribute's label count at
        /// induction time).
        n_children: u32,
        /// Arena offset of the first child.
        children_at: u32,
        /// Fraction-arena offset of this split's routing fractions.
        frac_at: u32,
    },
    /// `attr <= threshold` selects child 0, `> threshold` child 1.
    ThresholdSplit {
        /// Tested base attribute.
        attr: u32,
        /// The split threshold.
        threshold: f64,
        /// Arena offset of the low child (the high child follows it).
        children_at: u32,
        /// Fraction-arena offset of this split's routing fractions.
        frac_at: u32,
    },
}

/// A [`DecisionTree`] compiled into contiguous arenas for fast
/// record classification. Built by [`FlatTree::from_tree`]; immutable
/// afterwards.
#[derive(Debug, Clone)]
pub struct FlatTree {
    nodes: Vec<FlatNode>,
    counts: Vec<f64>,
    fractions: Vec<f64>,
    class_card: u32,
}

impl FlatTree {
    /// Compile `tree` into its flat form. O(tree size); the result
    /// evaluates bit-identically to the source tree.
    pub fn from_tree(tree: &DecisionTree) -> FlatTree {
        let mut flat = FlatTree {
            nodes: vec![FlatNode::DisabledLeaf],
            counts: Vec::new(),
            fractions: Vec::new(),
            class_card: tree.class_card(),
        };
        flat.fill(tree.root(), 0);
        flat
    }

    fn fill(&mut self, node: &Node, at: usize) {
        match node {
            Node::Leaf { counts, enabled } => {
                self.nodes[at] = if *enabled {
                    let counts_at = self.counts.len() as u32;
                    self.counts.extend_from_slice(counts);
                    FlatNode::Leaf { counts_at }
                } else {
                    FlatNode::DisabledLeaf
                };
            }
            Node::Split { attr, kind, children, fractions, .. } => {
                let children_at = self.nodes.len() as u32;
                for _ in children {
                    self.nodes.push(FlatNode::DisabledLeaf);
                }
                let frac_at = self.fractions.len() as u32;
                self.fractions.extend_from_slice(fractions);
                self.nodes[at] = match kind {
                    SplitKind::Nominal => FlatNode::NominalSplit {
                        attr: *attr as u32,
                        n_children: children.len() as u32,
                        children_at,
                        frac_at,
                    },
                    SplitKind::Threshold(t) => FlatNode::ThresholdSplit {
                        attr: *attr as u32,
                        threshold: *t,
                        children_at,
                        frac_at,
                    },
                };
                for (i, child) in children.iter().enumerate() {
                    self.fill(child, children_at as usize + i);
                }
            }
        }
    }

    /// Number of class codes the tree distinguishes.
    pub fn class_card(&self) -> u32 {
        self.class_card
    }

    /// Classify one row given as [`TypedCell`]s (see
    /// [`dq_table::Table::typed_row_into`]) — the detection scan's
    /// entry point. The cells are fetched once per row and shared by
    /// every attribute's tree, so a chain of splits on one attribute
    /// costs one array read per node instead of one column dispatch.
    ///
    /// The common no-missing-value descent runs as a loop and returns
    /// the reached leaf's count slice **straight out of the arena**:
    /// at weight 1.0 the boxed tree's accumulation into a zeroed
    /// buffer produces exactly those bytes (`0.0 + 1.0 · c = c`), so
    /// nothing is copied (a disabled leaf yields the empty slice, the
    /// same zero support a zeroed buffer carries). Only NULL (or
    /// unseen) test values fall back to the recursive fractional
    /// distribution into `acc`. Arithmetic and traversal order are
    /// exactly those of the boxed tree, so the returned counts are
    /// bit-identical.
    pub fn classify_cells<'a>(&'a self, cells: &[TypedCell], acc: &'a mut [f64]) -> &'a [f64] {
        debug_assert_eq!(acc.len(), self.class_card as usize);
        let mut at = 0u32;
        loop {
            match self.nodes[at as usize] {
                FlatNode::DisabledLeaf => return &[],
                FlatNode::Leaf { counts_at } => {
                    let from = counts_at as usize;
                    return &self.counts[from..from + self.class_card as usize];
                }
                FlatNode::NominalSplit { attr, n_children, children_at, frac_at } => {
                    match cells[attr as usize].as_nominal() {
                        Some(code) if code < n_children => at = children_at + code,
                        _ => {
                            acc.fill(0.0);
                            self.distribute_cells(
                                children_at,
                                n_children,
                                frac_at,
                                cells,
                                1.0,
                                acc,
                            );
                            return acc;
                        }
                    }
                }
                FlatNode::ThresholdSplit { attr, threshold, children_at, frac_at } => {
                    match cells[attr as usize].as_numeric() {
                        Some(x) => at = children_at + u32::from(x > threshold),
                        None => {
                            acc.fill(0.0);
                            self.distribute_cells(children_at, 2, frac_at, cells, 1.0, acc);
                            return acc;
                        }
                    }
                }
            }
        }
    }

    fn accumulate_cells(&self, at: u32, cells: &[TypedCell], weight: f64, acc: &mut [f64]) {
        if weight < MIN_WEIGHT {
            return;
        }
        match self.nodes[at as usize] {
            FlatNode::DisabledLeaf => {}
            FlatNode::Leaf { counts_at } => {
                let from = counts_at as usize;
                let counts = &self.counts[from..from + acc.len()];
                for (a, &c) in acc.iter_mut().zip(counts) {
                    *a += weight * c;
                }
            }
            FlatNode::NominalSplit { attr, n_children, children_at, frac_at } => {
                match cells[attr as usize].as_nominal() {
                    Some(code) if code < n_children => {
                        self.accumulate_cells(children_at + code, cells, weight, acc);
                    }
                    // NULL (or unseen) test value: distribute over all
                    // branches with the training fractions.
                    _ => {
                        self.distribute_cells(children_at, n_children, frac_at, cells, weight, acc)
                    }
                }
            }
            FlatNode::ThresholdSplit { attr, threshold, children_at, frac_at } => {
                match cells[attr as usize].as_numeric() {
                    Some(x) => {
                        let child = children_at + u32::from(x > threshold);
                        self.accumulate_cells(child, cells, weight, acc);
                    }
                    None => self.distribute_cells(children_at, 2, frac_at, cells, weight, acc),
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // private split-shared helper
    fn distribute_cells(
        &self,
        children_at: u32,
        n_children: u32,
        frac_at: u32,
        cells: &[TypedCell],
        weight: f64,
        acc: &mut [f64],
    ) {
        for b in 0..n_children {
            let f = self.fractions[(frac_at + b) as usize];
            self.accumulate_cells(children_at + b, cells, weight * f, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use crate::dataset::TrainingSet;
    use crate::tree::{C45Config, C45Inducer, Pruning};
    use dq_table::{SchemaBuilder, Table, Value};

    /// A mixed-type table with NULLs, out-of-domain codes and ties.
    fn mixed_table() -> Table {
        let schema = SchemaBuilder::new()
            .nominal("a", ["p", "q", "r"])
            .numeric("x", 0.0, 100.0)
            .date_ymd("d", (2000, 1, 1), (2010, 1, 1))
            .nominal("y", ["lo", "hi"])
            .build()
            .unwrap();
        let base = dq_table::date::days_from_civil(2001, 1, 1);
        let mut t = Table::new(schema);
        for i in 0..300 {
            let a = if i % 11 == 0 { Value::Null } else { Value::Nominal((i % 3) as u32) };
            let x = if i % 7 == 0 { Value::Null } else { Value::Number((i % 40) as f64) };
            let d = Value::Date(base + (i % 25) as i64);
            let y = Value::Nominal(u32::from(i % 40 >= 20));
            t.push_row(&[a, x, d, y]).unwrap();
        }
        t.push_row_lenient(&[
            Value::Nominal(9),
            Value::Number(5.0),
            Value::Null,
            Value::Nominal(0),
        ])
        .unwrap();
        t
    }

    #[test]
    fn flat_classification_is_bit_identical_to_the_boxed_tree() {
        let t = mixed_table();
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        for pruning in [Pruning::None, Pruning::ExpectedErrorConfidence] {
            let cfg = C45Config { pruning, ..C45Config::default() };
            let mut tree = C45Inducer::new(cfg).induce_tree(&ts).unwrap();
            tree.disable_undetecting_leaves(0.8);
            let flat = FlatTree::from_tree(&tree);
            assert_eq!(flat.class_card(), tree.class_card());
            let mut acc = vec![0.0; flat.class_card() as usize];
            let mut cells = Vec::new();
            for r in 0..t.n_rows() {
                let record = t.row(r);
                let boxed = tree.predict(&record);
                t.typed_row_into(r, &mut cells);
                let direct = flat.classify_cells(&cells, &mut acc);
                if direct.is_empty() {
                    // Disabled-leaf shorthand: stands for an all-zero
                    // count vector.
                    assert!(boxed.counts.iter().all(|&c| c == 0.0), "row {r}");
                } else {
                    for (&a, &b) in direct.iter().zip(&boxed.counts) {
                        assert_eq!(a.to_bits(), b.to_bits(), "arena-direct, row {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn arena_is_contiguous_and_boxed_free() {
        let t = mixed_table();
        let ts = TrainingSet::full(&t, 0, 4).unwrap();
        let cfg = C45Config { pruning: Pruning::None, ..C45Config::default() };
        let tree = C45Inducer::new(cfg).induce_tree(&ts).unwrap();
        let flat = FlatTree::from_tree(&tree);
        // Exactly one arena slot per tree node.
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { children, .. } => 1 + children.iter().map(count).sum::<usize>(),
            }
        }
        assert_eq!(flat.nodes.len(), count(tree.root()));
    }
}
