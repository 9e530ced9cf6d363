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
//! * one shared leaf-count arena, `class_card` counts per enabled leaf
//!   in leaf-index order, and one shared fraction arena (`Vec<f64>`
//!   each), indexed by offset.
//!
//! [`FlatTree::descend`] is the one evaluator: it reads a row's
//! [`TypedCell`]s (fetched once per row by
//! [`dq_table::Table::typed_row_into`] and shared by every attribute's
//! tree) — no per-row `Vec<Value>` materialization. A row that meets no
//! NULL (or unseen) test value reaches exactly one leaf, and `descend`
//! returns that leaf's index ([`Reach::Leaf`]), so a caller can keep
//! anything it derives from a leaf's counts — `dq_core` keeps each
//! leaf's detection verdict — and look it up once per row instead of
//! recomputing it. A row that a NULL test spreads over several leaves
//! gets its weighted class counts ([`Reach::Spread`]), computed with
//! **exactly the floating-point operations, in exactly the order**, of
//! [`Node`]-tree classification, so audit reports stay byte-identical
//! at every chunk size and thread count. The boxed tree's
//! [`Classifier::predict`] is the reference it is tested against.

use crate::classifier::Classifier;
use crate::tree::{DecisionTree, Node, SplitKind, MIN_WEIGHT};
use dq_table::TypedCell;

/// One node of the flattened tree: a leaf when `n_children` is 0, else
/// a split whose children occupy the arena slots `at .. at +
/// n_children` in branch order and whose missing-value routing
/// fractions occupy the fraction arena at `frac_at` with the same
/// layout. Every node shares one layout, so a descent step is one load
/// and one test for a leaf.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    /// A threshold split's cut: `attr <= threshold` selects child 0,
    /// `> threshold` child 1.
    threshold: f64,
    /// A split's tested base attribute.
    attr: u32,
    /// A split's first child; a leaf's index among the tree's enabled
    /// leaves (its class counts live at `at * class_card` in the count
    /// arena), or [`FlatNode::DISABLED`] for a leaf deleted from the
    /// structure model, which contributes nothing.
    at: u32,
    /// 0 for a leaf; 2 for a threshold split; the attribute's label
    /// count at induction time for a nominal split.
    n_children: u32,
    /// Fraction-arena offset of a split's routing fractions.
    frac_at: u32,
    /// Whether a split compares `attr` with `threshold`; else `attr`'s
    /// nominal code selects the child.
    by_threshold: bool,
}

impl FlatNode {
    /// The `at` of a disabled leaf.
    const DISABLED: u32 = u32::MAX;

    fn leaf(at: u32) -> FlatNode {
        FlatNode { threshold: 0.0, attr: 0, at, n_children: 0, frac_at: 0, by_threshold: false }
    }

    /// The branch a split sends a row down, or `None` for a NULL (or
    /// unseen, or wrongly typed) test value.
    #[inline]
    fn branch(&self, cells: &[TypedCell]) -> Option<u32> {
        match cells[self.attr as usize] {
            TypedCell::Numeric(Some(x)) if self.by_threshold => Some(u32::from(x > self.threshold)),
            TypedCell::Nominal(Some(code)) if !self.by_threshold && code < self.n_children => {
                Some(code)
            }
            _ => None,
        }
    }
}

/// Where a row's descent through a [`FlatTree`] ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reach<'a> {
    /// One enabled leaf, reached without a NULL (or unseen) test value:
    /// its index, `0..`[`FlatTree::n_leaves`].
    Leaf(u32),
    /// A leaf deleted from the structure model: no support.
    Disabled,
    /// A NULL (or unseen) test value spread the row over several
    /// branches: the weighted class counts.
    Spread(&'a [f64]),
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
            nodes: vec![FlatNode::leaf(FlatNode::DISABLED)],
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
                if *enabled {
                    let leaf = self.n_leaves() as u32;
                    self.counts.extend_from_slice(counts);
                    self.nodes[at] = FlatNode::leaf(leaf);
                }
            }
            Node::Split { attr, kind, children, fractions, .. } => {
                let children_at = self.nodes.len() as u32;
                for _ in children {
                    self.nodes.push(FlatNode::leaf(FlatNode::DISABLED));
                }
                let frac_at = self.fractions.len() as u32;
                self.fractions.extend_from_slice(fractions);
                // A split without children distributes nothing: a
                // disabled leaf, which keeps `n_children == 0` for leaves.
                if children.is_empty() {
                    return;
                }
                let (by_threshold, threshold) = match kind {
                    SplitKind::Nominal => (false, 0.0),
                    SplitKind::Threshold(t) => (true, *t),
                };
                self.nodes[at] = FlatNode {
                    by_threshold,
                    threshold,
                    attr: *attr as u32,
                    at: children_at,
                    n_children: children.len() as u32,
                    frac_at,
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

    /// Number of enabled leaves, indexed `0..n_leaves()` in
    /// [`Reach::Leaf`].
    pub fn n_leaves(&self) -> usize {
        self.counts.len() / self.class_card.max(1) as usize
    }

    /// The class counts of enabled leaf `leaf`, straight out of the
    /// arena.
    pub fn leaf_counts(&self, leaf: u32) -> &[f64] {
        let card = self.class_card as usize;
        let from = leaf as usize * card;
        &self.counts[from..from + card]
    }

    /// Classify one row given as [`TypedCell`]s (see
    /// [`dq_table::Table::typed_row_into`]) — the detection scan's
    /// entry point. The cells are fetched once per row and shared by
    /// every attribute's tree, so a chain of splits on one attribute
    /// costs one array read per node instead of one column dispatch.
    ///
    /// The common no-missing-value descent runs as a loop and ends at
    /// one leaf: an enabled leaf's index ([`Reach::Leaf`]; at weight 1.0
    /// the boxed tree's accumulation into a zeroed buffer produces
    /// exactly [`FlatTree::leaf_counts`], since `0.0 + 1.0 · c = c`) or
    /// [`Reach::Disabled`] (the zero support a zeroed buffer carries).
    /// Only NULL (or unseen) test values fall back to the recursive
    /// fractional distribution into `acc` ([`Reach::Spread`]).
    /// Arithmetic and traversal order are exactly those of the boxed
    /// tree, so the counts are bit-identical.
    #[inline]
    pub fn descend<'a>(&'a self, cells: &[TypedCell], acc: &'a mut [f64]) -> Reach<'a> {
        debug_assert_eq!(acc.len(), self.class_card as usize);
        let mut node = self.nodes[0];
        while node.n_children > 0 {
            match node.branch(cells) {
                Some(b) => node = self.nodes[(node.at + b) as usize],
                None => {
                    acc.fill(0.0);
                    self.distribute_cells(&node, cells, 1.0, acc);
                    return Reach::Spread(acc);
                }
            }
        }
        match node.at {
            FlatNode::DISABLED => Reach::Disabled,
            leaf => Reach::Leaf(leaf),
        }
    }

    fn accumulate_cells(&self, at: u32, cells: &[TypedCell], weight: f64, acc: &mut [f64]) {
        if weight < MIN_WEIGHT {
            return;
        }
        let node = self.nodes[at as usize];
        if node.n_children > 0 {
            match node.branch(cells) {
                Some(b) => self.accumulate_cells(node.at + b, cells, weight, acc),
                // NULL (or unseen) test value: distribute over all
                // branches with the training fractions.
                None => self.distribute_cells(&node, cells, weight, acc),
            }
        } else if node.at != FlatNode::DISABLED {
            for (a, &c) in acc.iter_mut().zip(self.leaf_counts(node.at)) {
                *a += weight * c;
            }
        }
    }

    fn distribute_cells(
        &self,
        split: &FlatNode,
        cells: &[TypedCell],
        weight: f64,
        acc: &mut [f64],
    ) {
        for b in 0..split.n_children {
            let f = self.fractions[(split.frac_at + b) as usize];
            self.accumulate_cells(split.at + b, cells, weight * f, acc);
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
        let mut reached = [0usize; 3];
        let pruned = [Pruning::None, Pruning::ExpectedErrorConfidence];
        for (pruning, min_conf) in pruned.into_iter().flat_map(|p| [(p, 0.0), (p, 0.8)]) {
            let cfg = C45Config { pruning, ..C45Config::default() };
            let mut tree = C45Inducer::new(cfg).induce_tree(&ts).unwrap();
            tree.disable_undetecting_leaves(min_conf);
            let flat = FlatTree::from_tree(&tree);
            assert_eq!(flat.class_card(), tree.class_card());
            let mut acc = vec![0.0; flat.class_card() as usize];
            let mut cells = Vec::new();
            for r in 0..t.n_rows() {
                let record = t.row(r);
                let boxed = tree.predict(&record);
                t.typed_row_into(r, &mut cells);
                let direct = match flat.descend(&cells, &mut acc) {
                    Reach::Leaf(leaf) => {
                        reached[0] += 1;
                        flat.leaf_counts(leaf).to_vec()
                    }
                    // Stands for an all-zero count vector.
                    Reach::Disabled => {
                        reached[1] += 1;
                        vec![0.0; boxed.counts.len()]
                    }
                    Reach::Spread(counts) => {
                        reached[2] += 1;
                        counts.to_vec()
                    }
                };
                assert_eq!(direct.len(), boxed.counts.len(), "row {r}");
                for (&a, &b) in direct.iter().zip(&boxed.counts) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
                }
            }
        }
        assert!(reached.iter().all(|&n| n > 0), "every kind of descent is covered: {reached:?}");
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
