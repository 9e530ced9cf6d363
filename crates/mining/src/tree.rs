//! C4.5 decision trees, adjusted for data auditing (secs. 5.1 & 5.4).
//!
//! The induction follows Quinlan's C4.5 as the paper describes it:
//!
//! * split selection by **information gain** (ID3) or **gain ratio**
//!   (C4.5's correction for many-valued attributes), with Quinlan's
//!   heuristic of maximizing gain ratio only among splits of at least
//!   average gain;
//! * **numeric/date base attributes** split by binary thresholds
//!   "taken from the set of all occurring values";
//! * **missing values** handled by fractional instance weights: an
//!   instance with a NULL split value is distributed over all branches
//!   proportionally to the known instances, both in training and in
//!   classification;
//! * **pruning** in three selectable flavours — none, C4.5's
//!   pessimistic-error subtree replacement, and the paper's *integrated
//!   expected-error-confidence* pruning (sec. 5.4), which collapses a
//!   subtree during construction whenever the collapsed leaf has a
//!   higher expected error confidence (Def. 9);
//! * **minInst pre-pruning** (sec. 5.4): a node is not partitioned
//!   further unless some partition keeps at least `min_inst` instances
//!   of one class;
//! * **tree → rule set** transformation with per-rule expected and
//!   maximum-achievable error confidences, so the auditor can "delete
//!   all rules that are not useful for error detection".

use crate::classifier::{Classifier, Inducer, Prediction};
use crate::columns::{BaseColumn, ColumnarTraining, TableCache, ESCAPE};
use crate::dataset::TrainingSet;
use crate::error::MiningError;
use dq_stats::{argmax, expected_error_confidence, max_error_confidence};
use dq_table::{AttrIdx, Schema, Value};

/// Instances lighter than this are dropped when partitioning; repeated
/// fractional distribution otherwise produces dust that costs time and
/// adds nothing to any count.
pub(crate) const MIN_WEIGHT: f64 = 1e-6;

/// Pruning strategy.
///
/// ## Interpreting the paper's Def. 9 pruning
///
/// The paper replaces a subtree by a leaf "whenever this transformation
/// leads to a higher value for expErrorConf". Read with *raw* Def. 9
/// values, that rule contradicts the paper's own flagship result: for
/// the QUIS table behind `BRV = 404 → GBM = 901` (16117+1 vs 2000
/// records) the unsplit root scores `expErrorConf ≈ 0.085` (it softly
/// flags all 2000 `GBM = 911` records at ≈ 77% — *below* the 80%
/// minimal confidence the experiments fix) while the perfect split
/// scores `≈ 5.5 × 10⁻⁵`; raw maximization would prune the very split
/// that detects the deviation the paper reports at 99.95%. Sec. 5.4
/// resolves part of this: "low error confidence values are mostly not
/// useful in reality" — the user's minimal confidence bounds what
/// counts as detection, so all quantities below are **threshold-aware**
/// (contributions under [`C45Config::min_detect_conf`] are zeroed).
///
/// [`Pruning::ExpectedErrorConfidence`] keeps a subtree iff the
/// partition either *explains away* would-be flags (lower
/// above-threshold expected error confidence: minority mass that looks
/// erroneous at the parent is legitimate structure in a child — this
/// is what protects correct outliers, cf. sec. 2.2 "outliers can be
/// correct") or *enables new detections* (higher above-threshold
/// detection capability — this is what keeps the QUIS split alive).
/// Everything else "does not increase the error detection capability"
/// and is collapsed — in particular the noise trees of the sec. 5.4
/// motivation, whose leaves can neither fire nor explain. The raw
/// literal rule is retained as
/// [`Pruning::ExpectedErrorConfidenceRaw`] for the ablation
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pruning {
    /// Grow the full tree (bounded only by the stopping rules).
    None,
    /// C4.5's subtree replacement by pessimistic classification error
    /// (sec. 5.1.2): post-prune after construction.
    PessimisticError,
    /// The paper's integrated pruning (sec. 5.4), threshold-aware (see
    /// the enum-level discussion): during construction, a subtree is
    /// replaced by a leaf unless it either lowers the expected
    /// above-threshold error confidence or adds detection capability.
    #[default]
    ExpectedErrorConfidence,
    /// Def. 9 exactly as worded, on raw values: replace whenever the
    /// collapsed leaf's expected error confidence is higher. Collapses
    /// high-support impure nodes (see discussion); ablation only.
    ExpectedErrorConfidenceRaw,
}

/// Split selection criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitCriterion {
    /// ID3's information gain (systematically favours many-valued
    /// attributes — kept for ablation).
    InfoGain,
    /// C4.5's gain ratio over splits of at least average gain.
    #[default]
    GainRatio,
}

/// Configuration of the C4.5 inducer.
#[derive(Debug, Clone, PartialEq)]
pub struct C45Config {
    /// Split selection criterion.
    pub criterion: SplitCriterion,
    /// Pruning strategy.
    pub pruning: Pruning,
    /// Two-sided confidence level for all interval bounds (pessimistic
    /// error, expected error confidence).
    pub level: f64,
    /// minInst pre-pruning (sec. 5.4): a split is admissible only if at
    /// least one partition retains `min_inst` instances of one class,
    /// and a node whose best class count is already below `min_inst`
    /// becomes a leaf immediately. `0` disables the rule.
    pub min_inst: f64,
    /// Minimum total instance weight required to attempt a split
    /// (C4.5's default of 2: splitting fewer cannot generalize).
    pub min_split: f64,
    /// Minimum instance weight per branch: a split is admissible only
    /// if at least two branches carry this much weight (C4.5's MINOBJS
    /// rule, slightly strengthened). Without it the tree *carves every
    /// training error into its own singleton leaf* — the corrupted
    /// record then premise-matches its private pure leaf and is
    /// invisible to deviation detection.
    pub min_branch: f64,
    /// Hard depth bound (safety net on degenerate data).
    pub max_depth: usize,
    /// The user's minimal error confidence for detections; error-
    /// confidence contributions below it are ignored by the
    /// threshold-aware [`Pruning::ExpectedErrorConfidence`] criterion
    /// (see the [`Pruning`] discussion). The auditor sets this to its
    /// own minimal confidence.
    pub min_detect_conf: f64,
}

impl Default for C45Config {
    fn default() -> Self {
        C45Config {
            criterion: SplitCriterion::GainRatio,
            pruning: Pruning::ExpectedErrorConfidence,
            level: 0.95,
            min_inst: 0.0,
            min_split: 2.0,
            min_branch: 4.0,
            max_depth: 64,
            min_detect_conf: 0.8,
        }
    }
}

impl C45Config {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), MiningError> {
        if !(self.level > 0.0 && self.level < 1.0) {
            return Err(MiningError::BadConfig(format!(
                "confidence level must be in (0, 1), got {}",
                self.level
            )));
        }
        if self.min_inst < 0.0 || self.min_split < 0.0 || self.min_branch < 0.0 {
            return Err(MiningError::BadConfig(
                "min_inst, min_split and min_branch must be non-negative".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.min_detect_conf) {
            return Err(MiningError::BadConfig(format!(
                "min_detect_conf must be in [0, 1], got {}",
                self.min_detect_conf
            )));
        }
        if self.max_depth == 0 {
            return Err(MiningError::BadConfig("max_depth must be at least 1".into()));
        }
        Ok(())
    }
}

/// How an inner node routes records.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitKind {
    /// One child per nominal code of the attribute.
    Nominal,
    /// Two children: `value <= threshold` (child 0) and
    /// `value > threshold` (child 1).
    Threshold(f64),
}

/// A node of the induced tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A leaf predicting its class-count distribution. Disabled leaves
    /// (`enabled == false`) have been deleted from the structure model
    /// (sec. 5.4 rule deletion) and predict nothing.
    Leaf {
        /// Weighted class counts of the training instances at the leaf.
        counts: Vec<f64>,
        /// Whether the leaf still takes part in deviation detection.
        enabled: bool,
    },
    /// An inner test node.
    Split {
        /// The tested base attribute.
        attr: AttrIdx,
        /// The routing kind.
        kind: SplitKind,
        /// One node per branch.
        children: Vec<Node>,
        /// Fraction of (known) training weight that went to each child —
        /// the distribution used for records with a NULL test value.
        fractions: Vec<f64>,
        /// Class counts at this node (kept for diagnostics).
        counts: Vec<f64>,
    },
}

impl Node {
    fn counts(&self) -> &[f64] {
        match self {
            Node::Leaf { counts, .. } | Node::Split { counts, .. } => counts,
        }
    }

    fn weight(&self) -> f64 {
        self.counts().iter().sum()
    }

    /// Expected error confidence of the subtree (Def. 9): leaves use
    /// the class-frequency-weighted average of their own instances'
    /// error confidences; inner nodes the weight-share-weighted average
    /// of their children.
    pub fn expected_error_confidence(&self, level: f64) -> f64 {
        match self {
            Node::Leaf { counts, .. } => expected_error_confidence(counts, level),
            Node::Split { children, .. } => {
                let total: f64 = children.iter().map(Node::weight).sum();
                if total <= 0.0 {
                    return 0.0;
                }
                children
                    .iter()
                    .map(|c| c.weight() / total * c.expected_error_confidence(level))
                    .sum()
            }
        }
    }

    /// Weight of training instances the subtree *flags*: instances
    /// whose asymptotic error confidence (`max(0, P(ĉ) − P(c))`,
    /// sec. 5.2) under their leaf reaches `min_conf` ("low error
    /// confidence values are mostly not useful in reality", sec. 5.4).
    /// The count is binary per instance and **hiding-aware**:
    ///
    /// * binary, because a flag only counts as *explained* when a
    ///   partition pushes the instance's confidence below the user's
    ///   threshold (its observed class is ordinary in the new region);
    ///   mere confidence decay from shrinking proportions would
    ///   otherwise make every minority-concentrating split look like
    ///   an explanation;
    /// * hiding-aware, because instances in leaves lighter than
    ///   `min_inst` keep the flag they would receive under
    ///   `decision_counts` (the node where pruning is decided): a
    ///   sub-minInst leaf is unusable for detection, so moving a
    ///   suspicious instance into one *hides* it rather than explaining
    ///   it. Without this rule the greedy splitter carves every
    ///   training error into a tiny pure leaf — gain rewards exactly
    ///   that — and deviation detection goes blind.
    fn flagged_weight(&self, min_conf: f64, min_inst: f64, decision_counts: &[f64]) -> f64 {
        match self {
            Node::Leaf { counts, .. } => {
                let w: f64 = counts.iter().sum();
                if w <= 0.0 {
                    return 0.0;
                }
                let reference = if w >= min_inst { counts } else { decision_counts };
                let mut acc = 0.0;
                for (c, &cnt) in counts.iter().enumerate() {
                    if cnt > 0.0 && dq_stats::asymptotic_error_confidence(reference, c) >= min_conf
                    {
                        acc += cnt;
                    }
                }
                acc
            }
            Node::Split { children, .. } => {
                children.iter().map(|c| c.flagged_weight(min_conf, min_inst, decision_counts)).sum()
            }
        }
    }

    /// Detection capability at or above `min_conf`: the weight-share
    /// average of each leaf's maximum achievable error confidence,
    /// counting only leaves that can fire at the threshold. Breaks the
    /// 0-vs-0 ties of the threshold-aware pruning comparison: a pure
    /// high-support split flags nothing *in training* but can flag
    /// future deviations; a noise split can flag nothing at all.
    pub fn detection_capability(&self, level: f64, min_conf: f64) -> f64 {
        match self {
            Node::Leaf { counts, .. } => {
                let m = max_error_confidence(counts, level);
                if m >= min_conf {
                    m
                } else {
                    0.0
                }
            }
            Node::Split { children, .. } => {
                let total: f64 = children.iter().map(Node::weight).sum();
                if total <= 0.0 {
                    return 0.0;
                }
                children
                    .iter()
                    .map(|c| c.weight() / total * c.detection_capability(level, min_conf))
                    .sum()
            }
        }
    }

    /// Pessimistic classification error of the subtree (sec. 5.1.2):
    /// `rightBound(observed error rate, |S|)` at leaves, weight-share
    /// average at inner nodes.
    pub fn pessimistic_error(&self, level: f64) -> f64 {
        match self {
            Node::Leaf { counts, .. } => pessimistic_leaf_error(counts, level),
            Node::Split { children, .. } => {
                let total: f64 = children.iter().map(Node::weight).sum();
                if total <= 0.0 {
                    return 0.0;
                }
                children.iter().map(|c| c.weight() / total * c.pessimistic_error(level)).sum()
            }
        }
    }

    fn n_leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { children, .. } => children.iter().map(Node::n_leaves).sum(),
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { children, .. } => 1 + children.iter().map(Node::depth).max().unwrap_or(0),
        }
    }
}

fn pessimistic_leaf_error(counts: &[f64], level: f64) -> f64 {
    let n: f64 = counts.iter().sum();
    if n <= 0.0 {
        return 0.0;
    }
    let majority = counts[argmax(counts)];
    dq_stats::right_bound(1.0 - majority / n, n, level)
}

/// A trained C4.5 decision tree for one class attribute.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    class_card: u32,
    class_attr: AttrIdx,
    level: f64,
}

impl DecisionTree {
    /// Reassemble a tree from its parts — the inverse of structural
    /// serialization (`dq_core`'s model persistence). The caller is
    /// responsible for the parts' internal consistency (counts
    /// cardinality `class_card`, one fraction per child); predictions
    /// over inconsistent parts are unspecified but memory-safe.
    pub fn from_parts(root: Node, class_card: u32, class_attr: AttrIdx, level: f64) -> Self {
        DecisionTree { root, class_card, class_attr, level }
    }

    /// The class attribute this tree predicts.
    pub fn class_attr(&self) -> AttrIdx {
        self.class_attr
    }

    /// The root node (read access for inspection / rendering).
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.root.n_leaves()
    }

    /// Tree depth (a lone leaf has depth 1).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// The confidence level the tree was induced with.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Disable every leaf whose *maximum achievable* error confidence
    /// falls below `min_conf` — the paper's rule deletion (sec. 5.4):
    /// such leaves "cannot contribute to an error detection" at the
    /// user's minimal confidence, so they are removed from the
    /// structure model. Returns the number of leaves disabled.
    pub fn disable_undetecting_leaves(&mut self, min_conf: f64) -> usize {
        fn walk(node: &mut Node, min_conf: f64, level: f64) -> usize {
            match node {
                Node::Leaf { counts, enabled } => {
                    if *enabled && max_error_confidence(counts, level) < min_conf {
                        *enabled = false;
                        1
                    } else {
                        0
                    }
                }
                Node::Split { children, .. } => {
                    children.iter_mut().map(|c| walk(c, min_conf, level)).sum()
                }
            }
        }
        walk(&mut self.root, min_conf, self.level)
    }

    /// Number of enabled leaves (rules in the structure model).
    pub fn n_enabled_leaves(&self) -> usize {
        fn walk(node: &Node) -> usize {
            match node {
                Node::Leaf { enabled, .. } => usize::from(*enabled),
                Node::Split { children, .. } => children.iter().map(walk).sum(),
            }
        }
        walk(&self.root)
    }

    /// Transform the tree into its equivalent rule set ("It is
    /// straightforward to represent an induced decision tree as a set
    /// of rules from the root to its leaves", sec. 5.4). Disabled
    /// leaves are skipped.
    pub fn to_rules(&self) -> Vec<TreeRule> {
        let mut rules = Vec::with_capacity(self.n_leaves());
        let mut path: Vec<Condition> = Vec::new();
        collect_rules(&self.root, &mut path, self.level, &mut rules);
        rules
    }
}

fn collect_rules(node: &Node, path: &mut Vec<Condition>, level: f64, out: &mut Vec<TreeRule>) {
    match node {
        Node::Leaf { counts, enabled } => {
            if *enabled && counts.iter().sum::<f64>() > 0.0 {
                out.push(TreeRule {
                    conditions: merge_conditions(path),
                    predicted: argmax(counts) as u32,
                    counts: counts.clone(),
                    support: counts.iter().sum(),
                    expected_error_confidence: expected_error_confidence(counts, level),
                    max_error_confidence: max_error_confidence(counts, level),
                });
            }
        }
        Node::Split { attr, kind, children, .. } => {
            for (i, child) in children.iter().enumerate() {
                let test = match kind {
                    SplitKind::Nominal => ConditionTest::Eq(i as u32),
                    SplitKind::Threshold(t) => {
                        if i == 0 {
                            ConditionTest::LessEq(*t)
                        } else {
                            ConditionTest::Greater(*t)
                        }
                    }
                };
                path.push(Condition { attr: *attr, test });
                collect_rules(child, path, level, out);
                path.pop();
            }
        }
    }
}

/// Collapse repeated threshold tests on the same attribute along a path
/// (`x <= 7` then `x <= 3` becomes `x <= 3`).
fn merge_conditions(path: &[Condition]) -> Vec<Condition> {
    let mut out: Vec<Condition> = Vec::with_capacity(path.len());
    for c in path {
        if let Some(prev) = out.iter_mut().find(|p| p.attr == c.attr && p.test.same_kind(&c.test)) {
            prev.test = prev.test.tighten(&c.test);
        } else {
            out.push(c.clone());
        }
    }
    out
}

/// One test of a [`TreeRule`] premise.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// The tested base attribute.
    pub attr: AttrIdx,
    /// The test applied to it.
    pub test: ConditionTest,
}

/// The test kinds a decision-tree path can impose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConditionTest {
    /// Nominal equality with a code.
    Eq(u32),
    /// Ordered `value <= threshold`.
    LessEq(f64),
    /// Ordered `value > threshold`.
    Greater(f64),
}

impl ConditionTest {
    fn same_kind(&self, other: &ConditionTest) -> bool {
        matches!(
            (self, other),
            (ConditionTest::Eq(_), ConditionTest::Eq(_))
                | (ConditionTest::LessEq(_), ConditionTest::LessEq(_))
                | (ConditionTest::Greater(_), ConditionTest::Greater(_))
        )
    }

    fn tighten(&self, other: &ConditionTest) -> ConditionTest {
        match (self, other) {
            (ConditionTest::LessEq(a), ConditionTest::LessEq(b)) => {
                ConditionTest::LessEq(a.min(*b))
            }
            (ConditionTest::Greater(a), ConditionTest::Greater(b)) => {
                ConditionTest::Greater(a.max(*b))
            }
            // Equal-kind nominal tests on one path can only repeat the
            // same code (everything else has an empty instance set).
            _ => *other,
        }
    }

    /// Three-valued evaluation against a cell (`None` for NULL).
    pub fn matches(&self, v: &Value) -> Option<bool> {
        if v.is_null() {
            return None;
        }
        match self {
            ConditionTest::Eq(code) => Some(v.as_nominal() == Some(*code)),
            ConditionTest::LessEq(t) => v.as_numeric().map(|x| x <= *t),
            ConditionTest::Greater(t) => v.as_numeric().map(|x| x > *t),
        }
    }
}

/// A root-to-leaf rule of the structure model: "in database terminology
/// it can be seen as a set of integrity constraints that must hold with
/// a given probability" (sec. 5.4).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRule {
    /// Premise: conjunction of base-attribute tests.
    pub conditions: Vec<Condition>,
    /// The predicted (majority) class code.
    pub predicted: u32,
    /// Weighted class counts at the leaf.
    pub counts: Vec<f64>,
    /// Number of training instances the rule is based on.
    pub support: f64,
    /// Expected error confidence of the leaf (Def. 9).
    pub expected_error_confidence: f64,
    /// Highest error confidence an observation could score against the
    /// rule — its detection capability.
    pub max_error_confidence: f64,
}

impl TreeRule {
    /// `Some(true)` when the record satisfies every condition,
    /// `Some(false)` when some condition is violated, `None` when a
    /// NULL makes the premise undecidable.
    pub fn premise_matches(&self, record: &[Value]) -> Option<bool> {
        let mut all = true;
        for c in &self.conditions {
            match c.test.matches(&record[c.attr]) {
                Some(true) => {}
                Some(false) => return Some(false),
                None => all = false,
            }
        }
        if all {
            Some(true)
        } else {
            None
        }
    }

    /// Render the rule as text using the schema's attribute names and
    /// labels, e.g. `BRV = 404 ∧ KBM = 01 → GBM = 901 [n=16118]`.
    pub fn render(&self, schema: &Schema, class_attr: AttrIdx, class_label: &str) -> String {
        let mut premise = String::new();
        if self.conditions.is_empty() {
            premise.push_str("true");
        }
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                premise.push_str(" ∧ ");
            }
            let name = &schema.attr(c.attr).name;
            match c.test {
                ConditionTest::Eq(code) => {
                    let label = schema
                        .attr(c.attr)
                        .label(code)
                        .map(str::to_string)
                        .unwrap_or_else(|| format!("#{code}"));
                    premise.push_str(&format!("{name} = {label}"));
                }
                ConditionTest::LessEq(t) => premise.push_str(&format!("{name} <= {t}")),
                ConditionTest::Greater(t) => premise.push_str(&format!("{name} > {t}")),
            }
        }
        format!(
            "{premise} → {} = {} [n={:.0}]",
            schema.attr(class_attr).name,
            class_label,
            self.support
        )
    }
}

// ---------------------------------------------------------------------------
// Induction
// ---------------------------------------------------------------------------

/// The C4.5 induction algorithm as an [`Inducer`].
#[derive(Debug, Clone, Default)]
pub struct C45Inducer {
    config: C45Config,
}

impl C45Inducer {
    /// Create an inducer with the given configuration.
    pub fn new(config: C45Config) -> Self {
        C45Inducer { config }
    }

    /// Induce a typed [`DecisionTree`] (the trait method boxes it).
    ///
    /// This is the **columnar presorted** induction: a
    /// [`ColumnarTraining`] cache is built once, every ordered base
    /// attribute is sorted once, and the recursion threads stably
    /// partitioned sorted index slices downwards (SLIQ/SPRINT style),
    /// so the per-node threshold search is O(n) instead of
    /// O(n log n). Every float is accumulated in a fixed order (row
    /// order for counts, `(value, row)` order for threshold scans), so
    /// the tree's bytes are a function of the training set and the
    /// configuration alone; this crate's `tests/golden/c45_digests.txt`
    /// pins its structure and predictions per pruning mode and split
    /// criterion.
    pub fn induce_tree(&self, train: &TrainingSet<'_>) -> Result<DecisionTree, MiningError> {
        self.induce_tree_cached(train, &TableCache::build(train.table))
    }

    /// [`C45Inducer::induce_tree`] against a shared [`TableCache`] —
    /// the multiple classification / regression auditor induces one
    /// tree per attribute of one table, and the cache lets the
    /// per-attribute inductions share the table-level column widening
    /// and presorts instead of redoing them per class attribute.
    /// `cache` must be built from `train.table`.
    pub fn induce_tree_cached(
        &self,
        train: &TrainingSet<'_>,
        cache: &TableCache,
    ) -> Result<DecisionTree, MiningError> {
        self.config.validate()?;
        let ctx = InductionContext::new(train, &self.config, cache);
        let root_set = NodeSet::root(&ctx);
        let counts = class_counts(ctx.card, &root_set.instances);
        let mut scratch = Scratch::new(ctx.card, train.table.n_rows());
        let root = grow(&ctx, &mut scratch, root_set, counts, 0);
        Ok(self.finish_tree(train, root))
    }

    /// Post-construction steps (tree assembly, post-pruning).
    fn finish_tree(&self, train: &TrainingSet<'_>, root: Node) -> DecisionTree {
        let mut tree = DecisionTree {
            root,
            class_card: train.class_card(),
            class_attr: train.class_attr,
            level: self.config.level,
        };
        if self.config.pruning == Pruning::PessimisticError {
            prune_pessimistic(&mut tree.root, self.config.level);
        }
        tree
    }
}

impl Inducer for C45Inducer {
    fn induce(&self, train: &TrainingSet<'_>) -> Result<Box<dyn Classifier>, MiningError> {
        self.induce_tree(train).map(|t| Box::new(t) as Box<dyn Classifier>)
    }

    fn name(&self) -> &'static str {
        "c4.5"
    }
}

struct InductionContext<'a, 'b> {
    train: &'a TrainingSet<'b>,
    card: usize,
    cfg: &'a C45Config,
    /// The dense columnar cache (row-major byte block, ordered
    /// payloads and presorted row indices).
    cols: ColumnarTraining,
    /// For each base attribute position: its index into the per-node
    /// sorted lists (`None` for nominal attributes, which need none).
    ordered_idx: Vec<Option<usize>>,
    /// Byte offset within a block row (the table attribute) of each
    /// ordered base attribute, indexed like the per-node sorted lists.
    ordered_slots: Vec<usize>,
    /// Every nominal base attribute, in base-attribute order: the
    /// layout of the node-level single-pass count accumulation.
    nominal_layout: Vec<NominalSlot<'b>>,
    /// For each base attribute position: its index into
    /// `nominal_layout` (`None` for ordered attributes).
    nominal_idx: Vec<Option<usize>>,
    /// Total length of the flat `Σ card_attr × card` count matrix.
    nominal_len: usize,
}

/// Where one nominal base attribute's codes and counts live.
struct NominalSlot<'b> {
    /// Position in `TrainingSet::base_attrs`.
    pos: usize,
    /// Byte offset within a block row: the table attribute.
    slot: usize,
    /// Number of labels.
    card: usize,
    /// Offset of its `card × class` matrix in the flat count matrix.
    offset: usize,
    /// The table's own codes, read for an [`ESCAPE`] byte of an
    /// attribute with more than 255 labels.
    codes: &'b [Option<u32>],
}

impl NominalSlot<'_> {
    /// The code of `row` given its block byte; codes at or past `card`
    /// (NULL included) mean missing.
    #[inline]
    fn code(&self, byte: u8, row: u32) -> usize {
        if byte == ESCAPE && self.card > usize::from(ESCAPE) {
            self.codes[row as usize].map_or(usize::MAX, |c| c as usize)
        } else {
            // Below the escape the byte is the code; an escape of an
            // attribute of at most 255 labels is past its last code.
            usize::from(byte)
        }
    }
}

impl<'a, 'b> InductionContext<'a, 'b> {
    fn new(train: &'a TrainingSet<'b>, cfg: &'a C45Config, cache: &TableCache) -> Self {
        let cols = ColumnarTraining::build(train, cache);
        let card = train.class_card() as usize;
        let (mut ordered_idx, mut ordered_slots) = (Vec::new(), Vec::new());
        let (mut nominal_idx, mut nominal_layout) = (Vec::new(), Vec::new());
        let mut nominal_len = 0usize;
        for (pos, col) in cols.attrs.iter().enumerate() {
            let slot = train.base_attrs[pos];
            match col {
                BaseColumn::Ordered { .. } => {
                    ordered_idx.push(Some(ordered_slots.len()));
                    ordered_slots.push(slot);
                    nominal_idx.push(None);
                }
                BaseColumn::Nominal { card: card_attr } => {
                    ordered_idx.push(None);
                    nominal_idx.push(Some(nominal_layout.len()));
                    let codes = train.table.column(slot).as_nominal().expect("nominal column");
                    nominal_layout.push(NominalSlot {
                        pos,
                        slot,
                        card: *card_attr,
                        offset: nominal_len,
                        codes,
                    });
                    nominal_len += card_attr * card;
                }
            }
        }
        InductionContext {
            train,
            card,
            cfg,
            cols,
            ordered_idx,
            ordered_slots,
            nominal_layout,
            nominal_idx,
            nominal_len,
        }
    }
}

/// A candidate split of one node.
struct CandidateSplit {
    /// Index into `base_attrs`.
    attr_pos: usize,
    kind: SplitKind,
    gain: f64,
    gain_ratio: f64,
    /// Total known instance weight per branch (the per-branch sums of
    /// the class counts the candidate was scored on — all a chosen
    /// split still needs, for its missing-value routing fractions).
    branch_sizes: Vec<f64>,
}

/// Shared stopping rules: `true` when the node must not be
/// partitioned further.
fn stop_as_leaf(ctx: &InductionContext, counts: &[f64], depth: usize) -> bool {
    let total: f64 = counts.iter().sum();
    let max_class = counts.iter().cloned().fold(0.0, f64::max);
    // Pure node, too small to split, depth bound, or minInst
    // pre-pruning (no partition can keep min_inst instances of one
    // class if this node already has fewer).
    let pure = counts.iter().filter(|&&c| c > 0.0).count() <= 1;
    pure || total < ctx.cfg.min_split
        || depth + 1 >= ctx.cfg.max_depth
        || (ctx.cfg.min_inst > 0.0 && max_class < ctx.cfg.min_inst)
}

/// Missing-value routing fractions over the known branch weights.
fn branch_fractions(branch_sizes: &[f64]) -> Vec<f64> {
    let known: f64 = branch_sizes.iter().sum();
    if known > 0.0 {
        branch_sizes.iter().map(|w| w / known).collect()
    } else {
        vec![1.0 / branch_sizes.len() as f64; branch_sizes.len()]
    }
}

/// Integrated pruning (sec. 5.4), applied to a freshly built subtree —
/// see the [`Pruning`] discussion for why the default compares
/// threshold-aware values.
fn integrated_prune(ctx: &InductionContext, node: Node, counts: Vec<f64>) -> Node {
    match ctx.cfg.pruning {
        Pruning::ExpectedErrorConfidence => {
            let leaf = Node::Leaf { counts: counts.clone(), enabled: true };
            let (level, min_conf) = (ctx.cfg.level, ctx.cfg.min_detect_conf);
            // Keep the subtree iff the partition either *explains away*
            // would-be flags (lower above-threshold expected error
            // confidence: minority mass that looked like errors at the
            // parent is legitimate structure in a child) or *enables
            // new detections* (higher above-threshold capability).
            // Anything else "does not increase the error detection
            // capability" (sec. 5.4) and is collapsed.
            let leaf_mass = leaf.flagged_weight(min_conf, ctx.cfg.min_inst, &counts);
            let sub_mass = node.flagged_weight(min_conf, ctx.cfg.min_inst, &counts);
            let explains = sub_mass < leaf_mass - 1e-9 * leaf_mass.max(1.0);
            let enables = node.detection_capability(level, min_conf)
                > leaf.detection_capability(level, min_conf) + 1e-12;
            if !explains && !enables {
                return leaf;
            }
            node
        }
        Pruning::ExpectedErrorConfidenceRaw => {
            let leaf_eec = expected_error_confidence(&counts, ctx.cfg.level);
            if leaf_eec > node.expected_error_confidence(ctx.cfg.level) {
                return Node::Leaf { counts, enabled: true };
            }
            node
        }
        Pruning::None | Pruning::PessimisticError => node,
    }
}

// ---------------------------------------------------------------------------
// Columnar presorted induction (the hot path)
// ---------------------------------------------------------------------------

/// One training instance of a node: its table row, its class code and
/// its weight in this node. The class code fills what would otherwise
/// be padding after the row, so counting classes never leaves the
/// node-local arrays.
#[derive(Debug, Clone, Copy)]
struct Inst {
    row: u32,
    class: u32,
    weight: f64,
}

/// One node's instance view in the presorted recursion. Every per-node
/// loop reads these node-local arrays, plus at most one L2-sized
/// per-row structure: the row-major byte block
/// ([`ColumnarTraining::row_codes`]) or the branch map
/// ([`Scratch::branch`]); no table-sized column is gathered from below
/// the root.
struct NodeSet {
    /// The node's instances in ascending row order — the order every
    /// class count and missing weight is accumulated in.
    instances: Vec<Inst>,
    /// Per ordered base attribute (indexed through
    /// `InductionContext::ordered_idx`): this node's known-value
    /// instances, sorted by `(value, row)`. Maintained by stable
    /// partition, never re-sorted; empty for a node the stopping rules
    /// make a leaf.
    sorted: Vec<SortedCol>,
    /// Bitmask (by base-attribute position, first 64 only) of nominal
    /// attributes this node can no longer usefully split on: an
    /// ancestor split on the attribute and routed *no* missing-value
    /// instances into this branch, so every instance here carries that
    /// branch's single code — the candidate would land its whole mass
    /// in one branch and always fail the two-heavy-branches rule.
    /// Skipping it produces exactly the `None` the evaluation would.
    exhausted: u64,
}

/// One ordered attribute's node-local instances in presorted order:
/// the values in one array and the `(row, class, weight)` records in a
/// parallel one, so the threshold scan streams two arrays
/// sequentially, and a split routes each record by its row's byte in
/// the branch map.
struct SortedCol {
    /// Attribute values, ascending by `(value, row)`.
    values: Vec<f64>,
    /// The instances, parallel to `values`; weights are this node's.
    insts: Vec<Inst>,
}

impl SortedCol {
    fn with_capacity(cap: usize) -> SortedCol {
        SortedCol { values: Vec::with_capacity(cap), insts: Vec::with_capacity(cap) }
    }

    /// Whether no NaN payload sits at either end of the presort (NaNs
    /// sort to the ends under `total_cmp`).
    fn nan_free(&self) -> bool {
        self.values.first().is_none_or(|v| !v.is_nan())
            && self.values.last().is_none_or(|v| !v.is_nan())
    }
}

impl NodeSet {
    fn root(ctx: &InductionContext) -> NodeSet {
        let instances = ctx
            .train
            .rows
            .iter()
            .zip(&ctx.train.codes)
            .map(|(&r, &class)| Inst { row: r as u32, class, weight: 1.0 })
            .collect();
        let sorted = ctx
            .cols
            .attrs
            .iter()
            .filter_map(|c| match c {
                BaseColumn::Ordered { values, sorted_rows } => Some(SortedCol {
                    values: sorted_rows.iter().map(|&r| values[r as usize]).collect(),
                    insts: sorted_rows
                        .iter()
                        .map(|&row| Inst {
                            row,
                            class: ctx.train.class_codes[row as usize]
                                .expect("presorted rows are training rows"),
                            weight: 1.0,
                        })
                        .collect(),
                }),
                BaseColumn::Nominal { .. } => None,
            })
            .collect();
        NodeSet { instances, sorted, exhausted: 0 }
    }
}

/// Branch-map byte of a row whose split value is missing (NULL, or a
/// nominal code past the label list): its instance is distributed over
/// every branch. Bytes below it are branch indices; [`ESCAPE`] marks a
/// nominal branch index of 254 or more, read through
/// [`branch_of_columnar`].
const MISSING: u8 = ESCAPE - 1;

/// Reusable per-induction scratch state: small class-indexed buffers
/// that spare the candidate search one heap allocation per node ×
/// attribute, and the one table-sized map every split routes by.
struct Scratch {
    /// Low-side class counts of the threshold scan (length `card`).
    low: Vec<f64>,
    /// Node class counts over known instances (length `card`).
    all: Vec<f64>,
    /// Ascending list of class codes present in `all` (non-zero count).
    present: Vec<u32>,
    /// Flat count matrix holding every nominal attribute's
    /// `branch × class` counts for one node (see
    /// `InductionContext::nominal_layout`).
    counts: Vec<f64>,
    /// Per-nominal-attribute missing weight, parallel to the layout.
    nominal_missing: Vec<f64>,
    /// Per-ordered-attribute missing (NULL) weight, indexed like the
    /// per-node sorted columns.
    ordered_missing: Vec<f64>,
    /// Flat `2 × class` branch counts of a chosen threshold cut.
    threshold_counts: Vec<f64>,
    /// Low-side snapshot of the best cut seen so far (length `card`).
    best_low: Vec<f64>,
    /// Low-side snapshot of a pending run-interior cut (length `card`).
    pending_low: Vec<f64>,
    /// One byte per table row: the branch of each row of the node being
    /// split (a branch index, [`MISSING`] or [`ESCAPE`]). Filled once
    /// per split, then read by the instance partition and by every
    /// sorted-column partition; only the node's rows are meaningful.
    branch: Vec<u8>,
}

impl Scratch {
    fn new(card: usize, n_rows: usize) -> Scratch {
        Scratch {
            low: vec![0.0; card],
            all: vec![0.0; card],
            present: Vec::with_capacity(card),
            counts: Vec::new(),
            nominal_missing: Vec::new(),
            ordered_missing: Vec::new(),
            threshold_counts: Vec::new(),
            best_low: vec![0.0; card],
            pending_low: vec![0.0; card],
            branch: vec![MISSING; n_rows],
        }
    }
}

/// Class counts of `instances`, accumulated in instance order.
fn class_counts(card: usize, instances: &[Inst]) -> Vec<f64> {
    let mut counts = vec![0.0; card];
    for inst in instances {
        counts[inst.class as usize] += inst.weight;
    }
    counts
}

/// Grow the subtree of `node_set`, whose class counts are `counts`.
fn grow(
    ctx: &InductionContext,
    scratch: &mut Scratch,
    node_set: NodeSet,
    counts: Vec<f64>,
    depth: usize,
) -> Node {
    if stop_as_leaf(ctx, &counts, depth) {
        return Node::Leaf { counts, enabled: true };
    }
    let (best, dead_mask) = select_split_columnar(ctx, scratch, &node_set, &counts);
    let Some(best) = best else {
        return Node::Leaf { counts, enabled: true };
    };

    let attr = ctx.train.base_attrs[best.attr_pos];
    let n_branches = best.branch_sizes.len();
    let fractions = branch_fractions(&best.branch_sizes);

    // Fill the branch map for the node's rows, once: a threshold split
    // reads its branches off the split column's node-local values (a
    // row absent from it has a NULL value), a nominal split off the
    // byte block.
    let map = &mut scratch.branch;
    let nominal = ctx.nominal_idx[best.attr_pos].map(|ni| &ctx.nominal_layout[ni]);
    match (&best.kind, nominal) {
        (SplitKind::Threshold(t), _) => {
            let oi =
                ctx.ordered_idx[best.attr_pos].expect("threshold split on an ordered attribute");
            for inst in &node_set.instances {
                map[inst.row as usize] = MISSING;
            }
            let split_col = &node_set.sorted[oi];
            for (&v, inst) in split_col.values.iter().zip(&split_col.insts) {
                map[inst.row as usize] = u8::from(v > *t);
            }
        }
        (SplitKind::Nominal, Some(nom)) => {
            for inst in &node_set.instances {
                let code = nom.code(ctx.cols.row(inst.row)[nom.slot], inst.row);
                map[inst.row as usize] = if code >= n_branches {
                    MISSING
                } else if code < usize::from(MISSING) {
                    code as u8
                } else {
                    ESCAPE
                };
            }
        }
        (SplitKind::Nominal, None) => unreachable!("nominal split on a nominal attribute"),
    }
    let map = &scratch.branch;
    let route = |row: u32| match map[row as usize] {
        MISSING => None,
        ESCAPE => branch_of_columnar(nominal.expect("escapes are nominal").codes, row, n_branches),
        b => Some(usize::from(b)),
    };

    // Partition the instances; NULLs go to every branch with their
    // weight scaled by the branch fraction.
    let mut parts: Vec<Vec<Inst>> = (0..n_branches)
        .map(|i| Vec::with_capacity((node_set.instances.len() as f64 * fractions[i]) as usize + 1))
        .collect();
    let mut distributed = false;
    for &inst in &node_set.instances {
        match route(inst.row) {
            Some(b) => parts[b].push(inst),
            None => {
                distributed = true;
                for (b, part) in parts.iter_mut().enumerate() {
                    let weight = inst.weight * fractions[b];
                    if weight >= MIN_WEIGHT {
                        part.push(Inst { weight, ..inst });
                    }
                }
            }
        }
    }
    let child_exhausted = node_set.exhausted
        | dead_mask
        | if !distributed && matches!(best.kind, SplitKind::Nominal) && best.attr_pos < 64 {
            1u64 << best.attr_pos
        } else {
            0
        };
    // A child the stopping rules turn into a leaf needs no sorted
    // columns.
    let child_counts: Vec<Vec<f64>> = parts.iter().map(|p| class_counts(ctx.card, p)).collect();
    let live: Vec<bool> = child_counts.iter().map(|c| !stop_as_leaf(ctx, c, depth + 1)).collect();

    // Thread the presorted columns down: stable partitioning of the
    // parent's columns yields each child's columns already sorted —
    // this is what replaces the per-node re-sort. Routed rows keep
    // their parent weight and distributed (NULL-test) rows get the
    // fraction-scaled weight — the same decisions, weights and
    // relative order the instance partition above produced.
    let split_oi = match best.kind {
        SplitKind::Threshold(_) => ctx.ordered_idx[best.attr_pos],
        SplitKind::Nominal => None,
    };
    let mut child_cols: Vec<Vec<SortedCol>> = live
        .iter()
        .map(|&l| Vec::with_capacity(if l { node_set.sorted.len() } else { 0 }))
        .collect();
    if live.iter().any(|&l| l) {
        for (oi, parent) in node_set.sorted.iter().enumerate() {
            // The split attribute's own column partitions *contiguously*
            // at the threshold (its elements are sorted by exactly the
            // tested value), so it splits by bulk copy. NaN payloads
            // sort to the ends under total_cmp but route like ordinary
            // values (`x > t` is false), breaking contiguity — they fall
            // through to the general filter.
            if let (true, SplitKind::Threshold(t)) = (split_oi == Some(oi), &best.kind) {
                if parent.nan_free() {
                    let cut = parent.values.partition_point(|&v| v <= *t);
                    for (b, cols) in child_cols.iter_mut().enumerate() {
                        if live[b] {
                            let range = if b == 0 { 0..cut } else { cut..parent.values.len() };
                            cols.push(SortedCol {
                                values: parent.values[range.clone()].to_vec(),
                                insts: parent.insts[range].to_vec(),
                            });
                        }
                    }
                    continue;
                }
            }
            let mut outs: Vec<SortedCol> = parts
                .iter()
                .zip(&live)
                .map(|(part, &l)| {
                    SortedCol::with_capacity(if l { part.len().min(parent.insts.len()) } else { 0 })
                })
                .collect();
            for (&v, &inst) in parent.values.iter().zip(&parent.insts) {
                match route(inst.row) {
                    Some(b) => {
                        if live[b] {
                            outs[b].values.push(v);
                            outs[b].insts.push(inst);
                        }
                    }
                    None => {
                        for (b, out) in outs.iter_mut().enumerate() {
                            let weight = inst.weight * fractions[b];
                            if live[b] && weight >= MIN_WEIGHT {
                                out.values.push(v);
                                out.insts.push(Inst { weight, ..inst });
                            }
                        }
                    }
                }
            }
            for ((cols, out), &l) in child_cols.iter_mut().zip(outs).zip(&live) {
                if l {
                    cols.push(out);
                }
            }
        }
    }
    drop(node_set);

    let children: Vec<Node> = parts
        .into_iter()
        .zip(child_cols)
        .zip(child_counts)
        .map(|((instances, sorted), child_counts)| {
            let set = NodeSet { instances, sorted, exhausted: child_exhausted };
            grow(ctx, scratch, set, child_counts, depth + 1)
        })
        .collect();
    let node = Node::Split { attr, kind: best.kind, children, fractions, counts: counts.clone() };
    integrated_prune(ctx, node, counts)
}

/// The branch of `row` under a nominal split, from the table's own
/// codes; `None` for NULL or out-of-domain codes (treated like missing,
/// as C4.5 treats unseen values). Mirrors [`branch_of`] exactly; the
/// split loops reach it only for an [`ESCAPE`] in the branch map.
#[inline]
fn branch_of_columnar(codes: &[Option<u32>], row: u32, n_branches: usize) -> Option<usize> {
    codes[row as usize].map(|c| c as usize).filter(|&c| c < n_branches)
}

/// Split selection over the columnar node view. Besides the winning
/// candidate, returns a bitmask of nominal attributes whose count
/// matrix has *no* cell reaching `min_inst`: their candidates are
/// `None` here and — because a child's cells are float-monotone
/// subset sums of the parent's (fewer addends, each at most its
/// original) — provably `None` in every descendant too, so the
/// recursion stops accumulating them.
fn select_split_columnar(
    ctx: &InductionContext,
    scratch: &mut Scratch,
    node_set: &NodeSet,
    parent_counts: &[f64],
) -> (Option<CandidateSplit>, u64) {
    let total: f64 = parent_counts.iter().sum();

    // One shared pass over the instances accumulates *every* nominal
    // attribute's branch × class matrix (and missing weight) at once,
    // reading each instance's row of the byte block once instead of
    // one table-sized column per attribute. Per matrix, cells receive
    // exactly the per-instance additions of the one-attribute loop, in
    // the same instance order, so every count is bit-identical.
    let card = ctx.card;
    scratch.counts.clear();
    scratch.counts.resize(ctx.nominal_len, 0.0);
    scratch.nominal_missing.clear();
    scratch.nominal_missing.resize(ctx.nominal_layout.len(), 0.0);
    let exhausted = |pos: usize| pos < 64 && node_set.exhausted & (1u64 << pos) != 0;
    {
        let nominal_cols: Vec<(usize, &NominalSlot)> =
            ctx.nominal_layout.iter().enumerate().filter(|(_, nom)| !exhausted(nom.pos)).collect();
        // Ordered attributes ride the same pass: their per-attribute
        // NULL weights accumulate in instance (row) order.
        scratch.ordered_missing.clear();
        scratch.ordered_missing.resize(ctx.ordered_slots.len(), 0.0);
        let flat = &mut scratch.counts;
        let missing = &mut scratch.nominal_missing;
        let ordered_missing = &mut scratch.ordered_missing;
        for inst in &node_set.instances {
            let (class, w) = (inst.class as usize, inst.weight);
            let bytes = ctx.cols.row(inst.row);
            for &(layout_i, nom) in &nominal_cols {
                let code = nom.code(bytes[nom.slot], inst.row);
                if code < nom.card {
                    flat[nom.offset + code * card + class] += w;
                } else {
                    missing[layout_i] += w;
                }
            }
            for (oi, &slot) in ctx.ordered_slots.iter().enumerate() {
                if bytes[slot] == 0 {
                    ordered_missing[oi] += w;
                }
            }
        }
    }

    // Candidates are collected in base-attribute order — `max_by`
    // breaks ties towards the *last* maximum, so the order is part of
    // the pinned selection semantics.
    let mut dead_mask = 0u64;
    let mut candidates: Vec<CandidateSplit> = Vec::new();
    for pos in 0..ctx.cols.attrs.len() {
        let cand = match ctx.nominal_idx[pos] {
            Some(ni) => {
                let nom = &ctx.nominal_layout[ni];
                if exhausted(pos) {
                    // An ancestor's split left a single code here; the
                    // candidate would put all mass in one branch and be
                    // rejected by the two-heavy-branches rule — skip
                    // the accumulation, the outcome is exactly `None`.
                    None
                } else {
                    let flat = &scratch.counts[nom.offset..nom.offset + nom.card * card];
                    if ctx.cfg.min_inst > 0.0
                        && pos < 64
                        && !flat.iter().any(|&x| x >= ctx.cfg.min_inst)
                    {
                        dead_mask |= 1u64 << pos;
                    }
                    finish_candidate_flat(
                        ctx,
                        pos,
                        SplitKind::Nominal,
                        flat,
                        nom.card,
                        scratch.nominal_missing[ni],
                        total,
                    )
                }
            }
            None => threshold_candidate_presorted(ctx, scratch, node_set, pos, total),
        };
        if let Some(c) = cand {
            candidates.push(c);
        }
    }
    (pick_candidate(ctx, candidates), dead_mask)
}

/// The presorted threshold search: the node's known instances arrive
/// already sorted by `(value, row)` in contiguous arrays, so one
/// sequential sweep finds the best cut — no per-node sort, no random
/// access. The threshold is the lower value of the winning cut, and
/// the first cut in ascending value order wins a tie. Low-side class
/// counts accumulate in `(value, row)` order and a cut's `low_w` is a
/// fresh class-order sum, so the threshold, gain and branch counts
/// equal those of an exhaustive scan over every cut between distinct
/// values (`tests/c45_oracle.rs` checks that scan's argmax by brute
/// force; `tests/golden/c45_digests.txt` pins the bits). The per-cut
/// entropy loop iterates only the classes present in the node (absent
/// classes have zero counts on both sides and contribute nothing).
///
/// The sweep walks value groups (runs of IEEE-equal values, exactly
/// the cuts the exhaustive scan's `values[i + 1] <= x` test
/// suppresses; NaN never equals and so forms singleton, never-pure
/// groups) as it meets them: it first reads a group to find its end
/// and whether one class fills it, then decides the cut in front of
/// it, then adds the group to the low side.
///
/// The evaluated-cut set is thinned with the Fayyad-Irani boundary
/// theorem (Fayyad & Irani 1992): the information-gain optimum of a
/// binary split never lies strictly inside a run of same-class
/// instances, so a cut whose two adjacent value groups are both pure
/// with the same class cannot win and its (expensive) entropy
/// evaluation is skipped. Two refinements keep the *selection* equal to
/// the exhaustive scan's:
///
/// * the min-branch feasibility window clips runs — the gain is convex
///   within a run, so its maximum over the feasible part of a run sits
///   at the first or last *feasible* cut. The first is evaluated even
///   when run-interior; the last is evaluated retroactively, from a
///   saved low-side snapshot, when the window closes inside the run. A
///   run still open when the scan ends reaches the last value, where
///   the gain would be 0 with everything on the low side, so by
///   convexity its first evaluated cut scores at least as high as any
///   later one and nothing is evaluated at the end;
/// * every evaluated cut computes `low_w` and its entropies with the
///   same float operations in the same order as the exhaustive scan,
///   so the winning `(gain, threshold)` is bit-identical.
fn threshold_candidate_presorted(
    ctx: &InductionContext,
    scratch: &mut Scratch,
    node_set: &NodeSet,
    attr_pos: usize,
    total: f64,
) -> Option<CandidateSplit> {
    let oi = ctx.ordered_idx[attr_pos].expect("ordered attribute");
    let sorted = &node_set.sorted[oi];
    // Missing (NULL) weight, pre-accumulated in instance order by the
    // node-level shared pass.
    let missing = scratch.ordered_missing[oi];
    let n = sorted.insts.len();
    if n < 2 {
        return None;
    }

    // Scan all cuts between distinct adjacent values, maintaining
    // incremental low-side class counts; the threshold is the lower
    // value itself ("split points taken from the set of all occurring
    // values").
    let card = ctx.card;
    let (values, insts) = (&sorted.values, &sorted.insts);
    let Scratch { low, all, present, best_low, pending_low, threshold_counts, .. } = scratch;
    let all = &mut all[..card];
    all.fill(0.0);
    for inst in insts {
        all[inst.class as usize] += inst.weight;
    }
    present.clear();
    for (k, &a) in all.iter().enumerate() {
        if a > 0.0 {
            present.push(k as u32);
        }
    }
    let known_weight: f64 = all.iter().sum();
    let parent_entropy = dq_stats::entropy(all);
    let min_side = ctx.cfg.min_branch.max(f64::MIN_POSITIVE);
    let guard = 1e-6 * (known_weight + 1.0);

    let low = &mut low[..card];
    let pending_low = &mut pending_low[..card];
    let best_low = &mut best_low[..card];
    low.fill(0.0);
    // Entropy evaluation of one cut from its low-side class counts.
    let evaluate = |low: &[f64], low_w: f64, high_w: f64| {
        let mut high_entropy = 0.0;
        let mut low_entropy = 0.0;
        for &k in present.iter() {
            let l = low[k as usize];
            if l > 0.0 {
                let p = l / low_w;
                low_entropy -= p * p.log2();
            }
            let h = all[k as usize] - l;
            if h > 0.0 {
                let p = h / high_w;
                high_entropy -= p * p.log2();
            }
        }
        parent_entropy - low_w / known_weight * low_entropy - high_w / known_weight * high_entropy
    };
    // Feasibility is checked exactly (fresh `low_w` sum) at evaluated
    // cuts and near the window edges; far from the edges a running
    // surrogate decides. The surrogate's drift is bounded by ~n·ε
    // relative error, orders of magnitude inside the guard band, so
    // its verdicts agree with the exact check everywhere it is used.
    let fresh_low_w = |low: &[f64]| {
        let mut low_w = 0.0;
        for &k in present.iter() {
            low_w += low[k as usize];
        }
        low_w
    };
    // Best cut so far: `(gain, threshold, end index of its low side)`;
    // its low-side class counts are kept in `best_low` so the final
    // branch-count pass only has to re-accumulate the high side.
    let mut best: Option<(f64, f64, usize)> = None;
    // Pending skipped-but-feasible cut: its threshold and low-side end
    // index, with its low-side snapshot in `pending_low`. If the
    // feasibility window closes before another cut is evaluated, this
    // was the last feasible cut and is evaluated retroactively (its
    // exact `low_w` is re-derived from the snapshot by the same
    // present-class sum).
    let mut pending: Option<(f64, usize)> = None;
    let mut run_low = 0.0f64;
    let mut was_feasible = false;
    // The pure class of the previous value group, if one class fills it.
    let mut prev_pure: Option<u32> = None;
    let mut start = 0usize;
    while start < n {
        // Find this value group's end and whether one class fills it.
        let v0 = values[start];
        let mut pure = if v0.is_nan() { None } else { Some(insts[start].class) };
        let mut end = start + 1;
        while end < n && values[end] == v0 {
            if pure.is_some_and(|c| c != insts[end].class) {
                pure = None;
            }
            end += 1;
        }
        // The cut between the previous group and this one.
        if start > 0 {
            let run_high = known_weight - run_low;
            let feasible =
                if (run_low - min_side).abs() > guard && (run_high - min_side).abs() > guard {
                    // Far from both window edges: the surrogate's verdict
                    // is certain.
                    run_low > min_side && run_high > min_side
                } else {
                    let low_w = fresh_low_w(low);
                    !(low_w < min_side || known_weight - low_w < min_side)
                };
            if feasible {
                let boundary = !(prev_pure.is_some() && prev_pure == pure);
                if boundary || !was_feasible {
                    // Run boundary, or the first feasible cut of a
                    // clipped run: evaluate exactly.
                    let low_w = fresh_low_w(low);
                    let high_w = known_weight - low_w;
                    let gain = evaluate(low, low_w, high_w);
                    if best.is_none_or(|(bg, _, _)| gain > bg) {
                        best = Some((gain, values[start - 1], start - 1));
                        best_low.copy_from_slice(low);
                    }
                    pending = None;
                } else {
                    // Run-interior and feasible: remember it in case it
                    // turns out to be the last feasible cut.
                    pending_low.copy_from_slice(low);
                    pending = Some((values[start - 1], start - 1));
                }
            } else if was_feasible {
                // The window just closed; the most recent feasible cut
                // was the clipped run's last feasible position.
                if let Some((px, ppos)) = pending.take() {
                    let plw = fresh_low_w(pending_low);
                    let gain = evaluate(pending_low, plw, known_weight - plw);
                    if best.is_none_or(|(bg, _, _)| gain > bg) {
                        best = Some((gain, px, ppos));
                        best_low.copy_from_slice(pending_low);
                    }
                }
            }
            was_feasible = feasible;
        }
        for inst in &insts[start..end] {
            low[inst.class as usize] += inst.weight;
            run_low += inst.weight;
        }
        prev_pure = pure;
        start = end;
    }
    let (_, threshold, cut_end) = best?;
    threshold_counts.clear();
    threshold_counts.resize(2 * card, 0.0);
    let flat = threshold_counts;
    if sorted.nan_free() {
        // NaN-free columns route exactly by sorted position: the low
        // side is the prefix through `cut_end`, whose class counts the
        // winning cut already accumulated (same additions, same
        // order); only the high suffix needs a pass.
        flat[..card].copy_from_slice(best_low);
        for inst in &insts[cut_end + 1..] {
            flat[card + inst.class as usize] += inst.weight;
        }
    } else {
        // NaN payloads sort to the ends but compare false against any
        // threshold — keep the exhaustive routing for them.
        for (&v, inst) in values.iter().zip(insts.iter()) {
            flat[usize::from(v > threshold) * card + inst.class as usize] += inst.weight;
        }
    }
    finish_candidate_flat(ctx, attr_pos, SplitKind::Threshold(threshold), flat, 2, missing, total)
}

/// Which branch a value falls into; `None` for NULL or out-of-domain
/// nominal codes (treated like missing, as C4.5 treats unseen values).
fn branch_of(kind: &SplitKind, v: &Value, n_branches: usize) -> Option<usize> {
    match kind {
        SplitKind::Nominal => match v.as_nominal() {
            Some(code) if (code as usize) < n_branches => Some(code as usize),
            _ => None,
        },
        SplitKind::Threshold(t) => v.as_numeric().map(|x| usize::from(x > *t)),
    }
}

/// The split-selection criterion applied to a node's candidate list.
fn pick_candidate(
    ctx: &InductionContext,
    candidates: Vec<CandidateSplit>,
) -> Option<CandidateSplit> {
    if candidates.is_empty() {
        return None;
    }
    match ctx.cfg.criterion {
        SplitCriterion::InfoGain => candidates.into_iter().max_by(|a, b| a.gain.total_cmp(&b.gain)),
        SplitCriterion::GainRatio => {
            // Quinlan's heuristic: best gain ratio among candidates with
            // at least average gain (avoids the ratio exploding on
            // near-zero-gain splits with tiny split info).
            let avg_gain: f64 =
                candidates.iter().map(|c| c.gain).sum::<f64>() / candidates.len() as f64;
            candidates
                .into_iter()
                .filter(|c| c.gain >= avg_gain - 1e-9)
                .max_by(|a, b| a.gain_ratio.total_cmp(&b.gain_ratio))
        }
    }
}

/// Candidate scoring on a flat `branch × class` count matrix: gain
/// scaled by the known-value fraction (C4.5's missing-value discount),
/// split info including the missing pseudo-branch, minInst
/// admissibility. Every intermediate float (per-branch sums, known
/// total, entropies, gain, gain ratio) is produced in a fixed order —
/// branch-major sums, the class-major total as the remainder divisor —
/// which the frozen C4.5 and audit digests pin.
fn finish_candidate_flat(
    ctx: &InductionContext,
    attr_pos: usize,
    kind: SplitKind,
    flat: &[f64],
    n_branches: usize,
    missing_weight: f64,
    total: f64,
) -> Option<CandidateSplit> {
    let card = ctx.card;
    debug_assert_eq!(flat.len(), n_branches * card);
    // Per-branch known weights, then their total (same nested-sum
    // order as `branch_counts.iter().map(sum).sum()`).
    let branch_sizes: Vec<f64> =
        (0..n_branches).map(|b| flat[b * card..(b + 1) * card].iter().sum::<f64>()).collect();
    let known: f64 = branch_sizes.iter().sum();
    if known <= 0.0 {
        return None;
    }
    // minInst admissibility: some partition must retain min_inst
    // instances of one class.
    if ctx.cfg.min_inst > 0.0 && !flat.iter().any(|&x| x >= ctx.cfg.min_inst) {
        return None;
    }
    // At least two sufficiently heavy branches, otherwise nothing is
    // separated — or worse, a training error gets carved into its own
    // singleton leaf where detection can never see it again.
    let heavy =
        branch_sizes.iter().filter(|&&s| s >= ctx.cfg.min_branch.max(f64::MIN_POSITIVE)).count();
    if heavy < 2 {
        return None;
    }
    // Known-instance class counts (the parent restricted to known).
    let mut known_counts = vec![0.0; card];
    for b in 0..n_branches {
        for (k, &c) in flat[b * card..(b + 1) * card].iter().enumerate() {
            known_counts[k] += c;
        }
    }
    // `info_gain` inlined over the flat rows: identical entropy calls
    // and weighted-remainder accumulation order as the slice-of-vecs
    // version in `dq_stats`. The remainder divisor is the *class-major*
    // total exactly as `info_gain` computes it (summing `known_counts`,
    // not the branch sizes — with fractional weights the two orders can
    // differ in the last ulp, and pre-refactor gains used this one).
    let class_total: f64 = known_counts.iter().sum();
    let raw_gain = if class_total <= 0.0 {
        0.0
    } else {
        let mut remainder = 0.0;
        for b in 0..n_branches {
            let size = branch_sizes[b];
            if size > 0.0 {
                remainder +=
                    size / class_total * dq_stats::entropy(&flat[b * card..(b + 1) * card]);
            }
        }
        dq_stats::entropy(&known_counts) - remainder
    };
    let gain = raw_gain * (known / total);
    if gain <= 1e-9 {
        return None;
    }
    // Split info over the real branches plus the missing pseudo-branch
    // (the entropy of the partition *sizes*; the per-branch sums are
    // exactly `branch_sizes`, the missing pseudo-branch sums to
    // `missing_weight`).
    let mut sizes_for_si = branch_sizes.clone();
    if missing_weight > 0.0 {
        sizes_for_si.push(missing_weight);
    }
    let si = dq_stats::entropy(&sizes_for_si);
    let gain_ratio = if si <= 1e-12 { 0.0 } else { gain / si };
    Some(CandidateSplit { attr_pos, kind, gain, gain_ratio, branch_sizes })
}

/// C4.5 post-pruning by pessimistic classification error: bottom-up
/// subtree replacement whenever the collapsed leaf's pessimistic error
/// does not exceed the subtree's.
fn prune_pessimistic(node: &mut Node, level: f64) {
    if let Node::Split { children, counts, .. } = node {
        for c in children.iter_mut() {
            prune_pessimistic(c, level);
        }
        let leaf_err = pessimistic_leaf_error(counts, level);
        let subtree_err = node.pessimistic_error(level);
        if leaf_err <= subtree_err + 1e-12 {
            *node = Node::Leaf { counts: node.counts().to_vec(), enabled: true };
        }
    }
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

impl Classifier for DecisionTree {
    fn predict(&self, record: &[Value]) -> Prediction {
        let mut acc = vec![0.0; self.class_card as usize];
        accumulate(&self.root, record, 1.0, &mut acc);
        Prediction::from_counts(acc)
    }

    fn describe(&self) -> String {
        format!(
            "c4.5 tree for attr {}: {} leaves ({} enabled), depth {}",
            self.class_attr,
            self.n_leaves(),
            self.n_enabled_leaves(),
            self.depth()
        )
    }

    fn class_card(&self) -> u32 {
        self.class_card
    }

    fn as_c45(&self) -> Option<&DecisionTree> {
        Some(self)
    }
}

fn accumulate(node: &Node, record: &[Value], weight: f64, acc: &mut [f64]) {
    if weight < MIN_WEIGHT {
        return;
    }
    match node {
        Node::Leaf { counts, enabled } => {
            if *enabled {
                for (a, &c) in acc.iter_mut().zip(counts) {
                    *a += weight * c;
                }
            }
        }
        Node::Split { attr, kind, children, fractions, .. } => {
            match branch_of(kind, &record[*attr], children.len()) {
                Some(b) => accumulate(&children[b], record, weight, acc),
                None => {
                    // NULL (or unseen) test value: distribute over all
                    // branches with the training fractions — the paper's
                    // "possibility to 'distribute' a training instance
                    // over several branches", applied at audit time.
                    for (child, &f) in children.iter().zip(fractions) {
                        accumulate(child, record, weight * f, acc);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_table::{SchemaBuilder, Table};

    /// A table where `y = x0 XOR x1` plus an irrelevant attribute.
    fn xor_table(n: usize) -> Table {
        let schema = SchemaBuilder::new()
            .nominal("x0", ["f", "t"])
            .nominal("x1", ["f", "t"])
            .nominal("noise", ["a", "b", "c"])
            .nominal("y", ["f", "t"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            let a = (i % 2) as u32;
            let b = ((i / 2) % 2) as u32;
            let noise = (i % 3) as u32;
            t.push_row(&[
                Value::Nominal(a),
                Value::Nominal(b),
                Value::Nominal(noise),
                Value::Nominal(a ^ b),
            ])
            .unwrap();
        }
        t
    }

    /// A table where `y = x0 AND x1` — greedy-learnable to purity
    /// (unlike XOR, every split has positive marginal gain).
    fn and_table(n: usize) -> Table {
        let schema = SchemaBuilder::new()
            .nominal("x0", ["f", "t"])
            .nominal("x1", ["f", "t"])
            .nominal("noise", ["a", "b", "c"])
            .nominal("y", ["f", "t"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            let a = (i % 2) as u32;
            let b = ((i / 2) % 2) as u32;
            t.push_row(&[
                Value::Nominal(a),
                Value::Nominal(b),
                Value::Nominal((i % 3) as u32),
                Value::Nominal(a & b),
            ])
            .unwrap();
        }
        t
    }

    fn grown_config() -> C45Config {
        C45Config { pruning: Pruning::None, ..C45Config::default() }
    }

    #[test]
    fn learns_xor_exactly() {
        let t = xor_table(80);
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let tree = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        for (a, b) in [(0u32, 0u32), (0, 1), (1, 0), (1, 1)] {
            let rec = vec![Value::Nominal(a), Value::Nominal(b), Value::Nominal(0), Value::Null];
            let p = tree.predict(&rec);
            assert_eq!(p.predicted_class(), a ^ b, "xor({a},{b})");
            assert!(p.support > 0.0);
        }
    }

    #[test]
    fn pure_class_yields_single_leaf() {
        let schema = SchemaBuilder::new()
            .nominal("x", ["p", "q"])
            .nominal("y", ["only", "never"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..10 {
            t.push_row(&[Value::Nominal((i % 2) as u32), Value::Nominal(0)]).unwrap();
        }
        let ts = TrainingSet::full(&t, 1, 4).unwrap();
        let tree = C45Inducer::default().induce_tree(&ts).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.depth(), 1);
        let p = tree.predict(&[Value::Nominal(0), Value::Null]);
        assert_eq!(p.predicted_class(), 0);
        assert_eq!(p.support, 10.0);
    }

    #[test]
    fn numeric_threshold_split() {
        let schema = SchemaBuilder::new()
            .numeric("x", 0.0, 100.0)
            .nominal("y", ["lo", "hi"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..40 {
            let x = i as f64;
            let y = u32::from(x >= 20.0);
            t.push_row(&[Value::Number(x), Value::Nominal(y)]).unwrap();
        }
        let ts = TrainingSet::full(&t, 1, 4).unwrap();
        let tree = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        assert_eq!(tree.predict(&[Value::Number(3.0), Value::Null]).predicted_class(), 0);
        assert_eq!(tree.predict(&[Value::Number(77.0), Value::Null]).predicted_class(), 1);
        // The threshold must be an occurring value in [19, 20).
        let rules = tree.to_rules();
        assert_eq!(rules.len(), 2);
        match rules[0].conditions[0].test {
            ConditionTest::LessEq(t) => assert_eq!(t, 19.0),
            ref other => panic!("expected LessEq, got {other:?}"),
        }
    }

    #[test]
    fn date_attributes_split_like_numbers() {
        let schema = SchemaBuilder::new()
            .date_ymd("d", (2000, 1, 1), (2020, 1, 1))
            .nominal("y", ["old", "new"])
            .build()
            .unwrap();
        let base = dq_table::date::days_from_civil(2000, 1, 1);
        let mut t = Table::new(schema);
        for i in 0..30 {
            t.push_row(&[Value::Date(base + i * 100), Value::Nominal(u32::from(i >= 15))]).unwrap();
        }
        let ts = TrainingSet::full(&t, 1, 4).unwrap();
        let tree = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        assert_eq!(tree.predict(&[Value::Date(base), Value::Null]).predicted_class(), 0);
        assert_eq!(tree.predict(&[Value::Date(base + 2900), Value::Null]).predicted_class(), 1);
    }

    #[test]
    fn missing_values_are_distributed() {
        let t = and_table(80);
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let tree = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        // With x0 missing and x1 = t, the record straddles the x0
        // branches: both classes keep positive probability and the
        // prediction rests on a proper subset of the training weight.
        let p = tree.predict(&[Value::Null, Value::Nominal(1), Value::Nominal(0), Value::Null]);
        assert!(p.support > 0.0 && p.support < 80.0, "support {}", p.support);
        assert!(p.probability(0) > 0.0 && p.probability(1) > 0.0, "{p:?}");
        // With both known the prediction is certain.
        let q =
            tree.predict(&[Value::Nominal(1), Value::Nominal(1), Value::Nominal(0), Value::Null]);
        assert_eq!(q.predicted_class(), 1);
        assert_eq!(q.probability(1), 1.0);
    }

    #[test]
    fn nulls_in_training_do_not_break_induction() {
        let schema =
            SchemaBuilder::new().nominal("x", ["p", "q"]).nominal("y", ["a", "b"]).build().unwrap();
        let mut t = Table::new(schema);
        for i in 0..40 {
            let x = if i % 5 == 0 { Value::Null } else { Value::Nominal((i % 2) as u32) };
            t.push_row(&[x, Value::Nominal((i % 2) as u32)]).unwrap();
        }
        let ts = TrainingSet::full(&t, 1, 4).unwrap();
        let tree = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        let p = tree.predict(&[Value::Nominal(1), Value::Null]);
        assert_eq!(p.predicted_class(), 1);
    }

    #[test]
    fn out_of_domain_codes_classify_as_missing() {
        let t = xor_table(80);
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let tree = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        let p =
            tree.predict(&[Value::Nominal(99), Value::Nominal(0), Value::Nominal(0), Value::Null]);
        assert!(p.support > 0.0);
    }

    #[test]
    fn min_inst_prepruning_stops_growth() {
        let t = xor_table(16); // 4 instances per XOR cell
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let big = C45Config { min_inst: 100.0, pruning: Pruning::None, ..C45Config::default() };
        let tree = C45Inducer::new(big).induce_tree(&ts).unwrap();
        assert_eq!(tree.n_leaves(), 1, "minInst must freeze the root");
        let ok = C45Config { min_inst: 2.0, pruning: Pruning::None, ..C45Config::default() };
        let tree = C45Inducer::new(ok).induce_tree(&ts).unwrap();
        assert!(tree.n_leaves() > 1);
    }

    #[test]
    fn expected_error_confidence_pruning_collapses_uninformative_splits() {
        // Class barely depends on x (51/49 in both branches): splitting
        // cannot raise the expected error confidence, so the integrated
        // pruning keeps a single node; unpruned induction splits happily
        // on noise given enough attributes.
        let schema = SchemaBuilder::new()
            .nominal("x", ["p", "q"])
            .nominal("z", ["u", "v", "w"])
            .nominal("y", ["a", "b"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        // Deterministic near-noise pattern.
        for i in 0..400 {
            let x = (i % 2) as u32;
            let z = (i % 3) as u32;
            let y = u32::from((i * 7 + 3) % 10 < 5);
            t.push_row(&[Value::Nominal(x), Value::Nominal(z), Value::Nominal(y)]).unwrap();
        }
        let ts = TrainingSet::full(&t, 2, 4).unwrap();
        let pruned = C45Inducer::default().induce_tree(&ts).unwrap();
        let unpruned = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        assert!(pruned.n_leaves() <= unpruned.n_leaves());
    }

    /// The QUIS anecdote shape: BRV=404 ⇒ GBM=901 (16117 + 1
    /// deviation), BRV=501 ⇒ GBM=911 (2000 records).
    fn quis_anecdote_training() -> Table {
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for _ in 0..16_117 {
            t.push_row(&[Value::Nominal(0), Value::Nominal(0)]).unwrap();
        }
        for _ in 0..2000 {
            t.push_row(&[Value::Nominal(1), Value::Nominal(1)]).unwrap();
        }
        t.push_row(&[Value::Nominal(0), Value::Nominal(1)]).unwrap();
        t
    }

    #[test]
    fn threshold_aware_pruning_keeps_the_quis_split() {
        let t = quis_anecdote_training();
        let ts = TrainingSet::full(&t, 1, 4).unwrap();
        let tree = C45Inducer::default().induce_tree(&ts).unwrap();
        assert!(tree.n_leaves() >= 2, "the BRV split must survive pruning");
        // The deviating record is flagged at the paper's confidence.
        let p = tree.predict(&[Value::Nominal(0), Value::Null]);
        assert!(p.error_confidence(1, 0.95) > 0.999);
    }

    #[test]
    fn raw_def9_pruning_collapses_the_quis_split() {
        // Documented failure mode of the literal Def. 9 reading: the
        // impure root leaf's raw expected error confidence (soft flags
        // at ~77%, below the 80% threshold) beats the split's, so the
        // split is pruned and the 99.95% detection is lost.
        let t = quis_anecdote_training();
        let ts = TrainingSet::full(&t, 1, 4).unwrap();
        let cfg =
            C45Config { pruning: Pruning::ExpectedErrorConfidenceRaw, ..C45Config::default() };
        let tree = C45Inducer::new(cfg).induce_tree(&ts).unwrap();
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn pessimistic_pruning_shrinks_noisy_trees() {
        let schema = SchemaBuilder::new()
            .nominal("x", ["p", "q"])
            .nominal("z", ["u", "v", "w"])
            .nominal("y", ["a", "b"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..300 {
            let y = u32::from((i * 13 + 5) % 7 < 3);
            t.push_row(&[
                Value::Nominal((i % 2) as u32),
                Value::Nominal((i % 3) as u32),
                Value::Nominal(y),
            ])
            .unwrap();
        }
        let ts = TrainingSet::full(&t, 2, 4).unwrap();
        let cfg = C45Config { pruning: Pruning::PessimisticError, ..C45Config::default() };
        let pruned = C45Inducer::new(cfg).induce_tree(&ts).unwrap();
        let unpruned = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        assert!(pruned.n_leaves() <= unpruned.n_leaves());
    }

    #[test]
    fn rules_round_trip_the_tree() {
        let t = and_table(80);
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let tree = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        let rules = tree.to_rules();
        assert_eq!(rules.len(), tree.n_enabled_leaves());
        // Every training record matches exactly one rule, and the rule
        // predicts its class (XOR is noise-free).
        for r in 0..t.n_rows() {
            let rec = t.row(r);
            let matching: Vec<&TreeRule> =
                rules.iter().filter(|rule| rule.premise_matches(&rec) == Some(true)).collect();
            assert_eq!(matching.len(), 1, "row {r}");
            assert_eq!(
                Value::Nominal(matching[0].predicted),
                rec[3],
                "rule must predict the observed class"
            );
        }
        // Supports sum to the table size.
        let total: f64 = rules.iter().map(|r| r.support).sum();
        assert!((total - 80.0).abs() < 1e-9);
    }

    #[test]
    fn rule_rendering_uses_labels() {
        let t = xor_table(80);
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let tree = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        let rules = tree.to_rules();
        let text = rules[0].render(t.schema(), 3, "f");
        assert!(text.contains("→ y = f"), "got {text}");
        assert!(text.contains("x0 = ") || text.contains("x1 = "), "got {text}");
    }

    #[test]
    fn disabling_weak_leaves_reduces_structure_model() {
        let t = xor_table(12); // tiny: 3 instances per leaf
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let mut tree = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        let before = tree.n_enabled_leaves();
        let disabled = tree.disable_undetecting_leaves(0.8);
        assert_eq!(tree.n_enabled_leaves() + disabled, before);
        assert!(disabled > 0, "3-instance leaves cannot reach 80% confidence");
        // Disabled leaves predict nothing.
        let p =
            tree.predict(&[Value::Nominal(0), Value::Nominal(0), Value::Nominal(0), Value::Null]);
        assert_eq!(p.support, 0.0);
    }

    #[test]
    fn large_pure_rule_reaches_paper_confidence() {
        // The QUIS anecdote: a rule based on 16118 instances flags a
        // single deviation with 99.95% error confidence.
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for _ in 0..16_117 {
            t.push_row(&[Value::Nominal(0), Value::Nominal(0)]).unwrap();
        }
        t.push_row(&[Value::Nominal(0), Value::Nominal(1)]).unwrap();
        let ts = TrainingSet::full(&t, 1, 4).unwrap();
        let tree = C45Inducer::default().induce_tree(&ts).unwrap();
        let p = tree.predict(&[Value::Nominal(0), Value::Null]);
        assert_eq!(p.predicted_class(), 0);
        let conf = p.error_confidence(1, 0.95);
        assert!(conf > 0.99, "got {conf}");
    }

    #[test]
    fn config_validation() {
        assert!(C45Config { level: 1.5, ..C45Config::default() }.validate().is_err());
        assert!(C45Config { min_inst: -1.0, ..C45Config::default() }.validate().is_err());
        assert!(C45Config { max_depth: 0, ..C45Config::default() }.validate().is_err());
        assert!(C45Config::default().validate().is_ok());
        let ts_table = xor_table(8);
        let ts = TrainingSet::full(&ts_table, 3, 4).unwrap();
        let bad = C45Inducer::new(C45Config { level: 0.0, ..C45Config::default() });
        assert!(bad.induce_tree(&ts).is_err());
    }

    #[test]
    fn inducer_trait_boxes_classifier() {
        let t = xor_table(40);
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let inducer = C45Inducer::default();
        assert_eq!(inducer.name(), "c4.5");
        let clf = inducer.induce(&ts).unwrap();
        assert_eq!(clf.class_card(), 2);
        assert!(clf.describe().contains("c4.5"));
    }

    #[test]
    fn depth_bound_is_respected() {
        let t = xor_table(80);
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let cfg = C45Config { max_depth: 2, pruning: Pruning::None, ..C45Config::default() };
        let tree = C45Inducer::new(cfg).induce_tree(&ts).unwrap();
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn from_parts_rebuilds_an_identical_tree() {
        let t = xor_table(80);
        let ts = TrainingSet::full(&t, 3, 4).unwrap();
        let tree = C45Inducer::new(grown_config()).induce_tree(&ts).unwrap();
        let clf: &dyn Classifier = &tree;
        let original = clf.as_c45().expect("a decision tree downcasts to itself");
        let rebuilt = DecisionTree::from_parts(
            original.root().clone(),
            original.class_card(),
            original.class_attr(),
            original.level(),
        );
        assert_eq!(rebuilt.to_rules(), tree.to_rules());
        for r in 0..t.n_rows() {
            assert_eq!(rebuilt.predict(&t.row(r)), tree.predict(&t.row(r)), "row {r}");
        }
    }

    /// A messy mixed table: NULLs, value ties, a numeric and a date
    /// attribute, out-of-domain codes — the cases the presorted
    /// recursion must route and count exactly.
    fn messy_table(n: usize) -> Table {
        let schema = SchemaBuilder::new()
            .nominal("a", ["p", "q", "r"])
            .numeric("x", 0.0, 100.0)
            .date_ymd("d", (2000, 1, 1), (2010, 1, 1))
            .nominal("y", ["lo", "mid", "hi"])
            .build()
            .unwrap();
        let base = dq_table::date::days_from_civil(2001, 1, 1);
        let mut t = Table::new(schema);
        for i in 0..n {
            let a = if i % 11 == 0 { Value::Null } else { Value::Nominal((i % 3) as u32) };
            let x = if i % 7 == 0 { Value::Null } else { Value::Number((i % 13) as f64) };
            let d = if i % 5 == 0 { Value::Null } else { Value::Date(base + (i % 9) as i64) };
            let y = Value::Nominal(((i % 13) / 5).min(2) as u32);
            t.push_row(&[a, x, d, y]).unwrap();
        }
        // Out-of-domain nominal code (pollution can write those).
        t.push_row_lenient(&[
            Value::Nominal(9),
            Value::Number(3.0),
            Value::Null,
            Value::Nominal(1),
        ])
        .unwrap();
        t
    }

    /// FNV-1a (64-bit) of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The tree's structure as bytes: per node a tag, then (for a
    /// split) its attribute, split kind with the threshold's bits, and
    /// fractions; then every class count's bits; children follow in
    /// branch order.
    fn encode_node(node: &Node, out: &mut Vec<u8>) {
        let floats = |out: &mut Vec<u8>, xs: &[f64]| {
            out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
            for x in xs {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        };
        match node {
            Node::Leaf { counts, enabled } => {
                out.push(if *enabled { b'L' } else { b'l' });
                floats(out, counts);
            }
            Node::Split { attr, kind, children, fractions, counts } => {
                out.push(b'S');
                out.extend_from_slice(&(*attr as u64).to_le_bytes());
                match kind {
                    SplitKind::Nominal => out.push(b'n'),
                    SplitKind::Threshold(t) => {
                        out.push(b't');
                        out.extend_from_slice(&t.to_bits().to_le_bytes());
                    }
                }
                floats(out, fractions);
                floats(out, counts);
                for child in children {
                    encode_node(child, out);
                }
            }
        }
    }

    fn c45_golden_path() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/c45_digests.txt")
    }

    /// Gain ratio and information gain pick different roots here: `m`
    /// (12 labels) fixes `y` outright and has the top gain, `b` (2
    /// labels) agrees with `y` on 32 of 33 rows and has the top gain
    /// ratio among the above-average candidates, and `z` is weak.
    fn criterion_table(n: usize) -> Table {
        let schema = SchemaBuilder::new()
            .nominal_sized("m", 12)
            .nominal("b", ["f", "t"])
            .nominal("z", ["u", "v", "w"])
            .numeric("x", 0.0, 100.0)
            .nominal("y", ["f", "t"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            let m = (i % 12) as u32;
            let y = u32::from(m >= 6);
            let b = if i % 33 == 0 { 1 - y } else { y };
            let z = if i % 4 == 0 { y } else { (i % 3) as u32 };
            let x = Value::Number(((i * 7) % 40) as f64 + 10.0 * f64::from(y));
            t.push_row(&[
                Value::Nominal(m),
                Value::Nominal(b),
                Value::Nominal(z),
                x,
                Value::Nominal(y),
            ])
            .unwrap();
        }
        t
    }

    /// NULLs in both ordered columns and NaN payloads of either sign,
    /// so NULL instances are spread with fractional weights across
    /// threshold splits and NaNs sort to both ends of the presort.
    fn nan_table(n: usize) -> Table {
        let schema = SchemaBuilder::new()
            .numeric("x", 0.0, 100.0)
            .date_ymd("d", (2000, 1, 1), (2010, 1, 1))
            .nominal("a", ["p", "q", "r"])
            .nominal("y", ["lo", "mid", "hi"])
            .build()
            .unwrap();
        let base = dq_table::date::days_from_civil(2002, 1, 1);
        let mut t = Table::new(schema);
        for i in 0..n {
            let y = ((i % 17) / 6) as u32;
            let x = match i % 13 {
                0 => Value::Null,
                5 => Value::Number(f64::NAN),
                9 => Value::Number(-f64::NAN),
                _ => Value::Number((i % 17) as f64 * 3.0 + (i % 3) as f64),
            };
            let d = if i % 6 == 0 {
                Value::Null
            } else {
                Value::Date(base + ((i % 17) / 2) as i64 + (i % 5) as i64)
            };
            let a = if i % 19 == 0 { Value::Null } else { Value::Nominal((i % 3) as u32) };
            t.push_row_lenient(&[x, d, a, Value::Nominal(y)]).unwrap();
        }
        t
    }

    /// Two 300-label nominal attributes, so codes at and past 255 are
    /// both base-attribute branches and classes, next to NULLs and
    /// out-of-domain codes.
    fn wide_table(n: usize) -> Table {
        let schema = SchemaBuilder::new()
            .nominal_sized("w", 300)
            .nominal_sized("k", 300)
            .nominal("s", ["p", "q"])
            .numeric("x", 0.0, 100.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            let w = (i * 7 % 300) as u32;
            let s = (i % 2) as u32;
            let k = match i % 23 {
                0 => Value::Null,
                1 => Value::Nominal(300 + (i % 5) as u32),
                _ => Value::Nominal((w / 2 + 150 * s) % 300),
            };
            let w =
                if i % 29 == 0 { Value::Nominal(255 + (i % 90) as u32) } else { Value::Nominal(w) };
            let x = if i % 7 == 0 { Value::Null } else { Value::Number((i % 50) as f64) };
            t.push_row_lenient(&[w, k, Value::Nominal(s), x]).unwrap();
        }
        t
    }

    /// The labelled golden fixtures reach what they are there to pin.
    #[test]
    fn golden_fixtures_reach_their_paths() {
        let induce = |t: &Table, class_attr, criterion| {
            let ts = TrainingSet::full(t, class_attr, 4).unwrap();
            let cfg = C45Config { pruning: Pruning::None, criterion, ..C45Config::default() };
            C45Inducer::new(cfg).induce_tree(&ts).unwrap()
        };
        let root_attr = |tree: &DecisionTree| match tree.root() {
            Node::Split { attr, .. } => Some(*attr),
            Node::Leaf { .. } => None,
        };
        // The two criteria split the root of `y` on different attributes.
        let t = criterion_table(396);
        assert_eq!(root_attr(&induce(&t, 4, SplitCriterion::InfoGain)), Some(0));
        assert_eq!(root_attr(&induce(&t, 4, SplitCriterion::GainRatio)), Some(1));
        // Some threshold split on `x` carries fractional NULL weight.
        fn fractional_threshold(node: &Node, attr: AttrIdx) -> bool {
            match node {
                Node::Leaf { .. } => false,
                Node::Split { attr: a, kind, children, counts, .. } => {
                    (*a == attr
                        && matches!(kind, SplitKind::Threshold(_))
                        && children.iter().any(|c| c.counts().iter().any(|x| x.fract() != 0.0))
                        && counts.iter().all(|x| x.fract() == 0.0))
                        || children.iter().any(|c| fractional_threshold(c, attr))
                }
            }
        }
        let t = nan_table(500);
        assert!(fractional_threshold(induce(&t, 3, SplitCriterion::GainRatio).root(), 0));
        // `k` splits on all 300 codes of `w`, and some leaf predicts a
        // class code past 255.
        let t = wide_table(3000);
        let tree = induce(&t, 1, SplitCriterion::GainRatio);
        match tree.root() {
            Node::Split { attr: 0, kind: SplitKind::Nominal, children, .. } => {
                assert_eq!(children.len(), 300)
            }
            other => panic!("expected a nominal split on `w`, got {other:?}"),
        }
        assert!(tree.to_rules().iter().any(|r| r.predicted >= 255));
    }

    /// FNV-1a lines for every class attribute in `classes`, pruning
    /// mode and split criterion of `t`, each prefixed by `label`.
    fn digest_lines(t: &Table, classes: &[AttrIdx], label: &str, out: &mut String) {
        for &class_attr in classes {
            let ts = TrainingSet::full(t, class_attr, 4).unwrap();
            for pruning in [
                Pruning::None,
                Pruning::ExpectedErrorConfidence,
                Pruning::ExpectedErrorConfidenceRaw,
                Pruning::PessimisticError,
            ] {
                for criterion in [SplitCriterion::GainRatio, SplitCriterion::InfoGain] {
                    let cfg = C45Config { pruning, criterion, ..C45Config::default() };
                    let inducer = C45Inducer::new(cfg);
                    let tree = inducer.induce_tree(&ts).unwrap();
                    let mut bytes = Vec::new();
                    encode_node(tree.root(), &mut bytes);
                    for r in 0..t.n_rows() {
                        for c in tree.predict(&t.row(r)).counts {
                            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
                        }
                    }
                    out.push_str(&format!(
                        "{label}{class_attr} {pruning:?} {criterion:?} {:016x}\n",
                        fnv1a(&bytes)
                    ));
                }
            }
        }
    }

    /// The presorted inducer for every class attribute, pruning mode
    /// and split criterion: one FNV-1a line per configuration over the
    /// tree's structure followed by the bits of its `predict` counts
    /// on every row. The unlabelled lines of
    /// `tests/golden/c45_digests.txt` cover `messy_table(400)`; they
    /// were recorded while the row-at-a-time reference inducer
    /// (per-node re-sort, cells read through `Table::get`, every cut
    /// between distinct values scored) was checked equal to this
    /// inducer on each configuration. The labelled lines after them
    /// pin where the split criteria disagree, NULL and NaN routing
    /// through threshold splits, and labels past 255.
    /// Regenerate after an *intentional* change with
    /// `GOLDEN_REGEN=1 cargo test -p dq_mining presorted_induction_matches`.
    #[test]
    fn presorted_induction_matches_frozen_digests() {
        let mut actual = String::from("# class pruning criterion tree_and_predictions_fnv1a\n");
        digest_lines(&messy_table(400), &[0, 1, 2, 3], "", &mut actual);
        actual.push_str("# fixture class pruning criterion tree_and_predictions_fnv1a\n");
        digest_lines(&criterion_table(396), &[0, 1, 2, 3, 4], "criterion ", &mut actual);
        // NaN payloads cannot be binned, so `x` is a base attribute only.
        digest_lines(&nan_table(500), &[1, 2, 3], "nan ", &mut actual);
        digest_lines(&wide_table(3000), &[0, 1, 2, 3], "wide ", &mut actual);
        let path = c45_golden_path();
        if std::env::var_os("GOLDEN_REGEN").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            return;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
        assert_eq!(actual, expected, "C4.5 golden drift against {}", path.display());
    }

    #[test]
    fn merge_conditions_tightens_thresholds() {
        let path = vec![
            Condition { attr: 0, test: ConditionTest::LessEq(9.0) },
            Condition { attr: 1, test: ConditionTest::Greater(2.0) },
            Condition { attr: 0, test: ConditionTest::LessEq(4.0) },
            Condition { attr: 1, test: ConditionTest::Greater(5.0) },
        ];
        let merged = merge_conditions(&path);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].test, ConditionTest::LessEq(4.0));
        assert_eq!(merged[1].test, ConditionTest::Greater(5.0));
    }
}
