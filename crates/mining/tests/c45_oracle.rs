//! Independent C4.5 oracles.
//!
//! The expected numbers are worked by hand, not taken from any
//! implementation in this workspace:
//!
//! * Quinlan's 14-row weather table (Quinlan 1986; Witten & Frank,
//!   *Data Mining*, sec. 4.3): the gain ratio of every attribute at the
//!   root, and the tree C4.5 grows with pruning off;
//! * the same table with numeric temperature and humidity: the root
//!   threshold, which must also be the argmax of a brute-force gain
//!   ratio over every cut between adjacent distinct values;
//! * 300 seeded random tables of value ties and short class runs: the
//!   inducer's scan skips cuts inside same-class runs (Fayyad & Irani
//!   1992) and clips runs at the min-branch window, and its cut must
//!   still reach the brute-force best information gain;
//! * pessimistic-error pruning on a small table, with the bounds from
//!   the Wilson score interval's closed form.

use dq_mining::{C45Config, C45Inducer, DecisionTree, Node, Pruning, SplitKind, TrainingSet};
use dq_table::{Schema, SchemaBuilder, Table, Value};
use std::sync::Arc;

const OUTLOOK: usize = 0;
const TEMPERATURE: usize = 1;
const HUMIDITY: usize = 2;
const WINDY: usize = 3;
const PLAY: usize = 4;

/// The weather table: outlook, temperature, humidity, windy, play.
const ROWS: [[&str; 5]; 14] = [
    ["sunny", "hot", "high", "false", "no"],
    ["sunny", "hot", "high", "true", "no"],
    ["overcast", "hot", "high", "false", "yes"],
    ["rainy", "mild", "high", "false", "yes"],
    ["rainy", "cool", "normal", "false", "yes"],
    ["rainy", "cool", "normal", "true", "no"],
    ["overcast", "cool", "normal", "true", "yes"],
    ["sunny", "mild", "high", "false", "no"],
    ["sunny", "cool", "normal", "false", "yes"],
    ["rainy", "mild", "normal", "false", "yes"],
    ["sunny", "mild", "normal", "true", "yes"],
    ["overcast", "mild", "high", "true", "yes"],
    ["overcast", "hot", "normal", "false", "yes"],
    ["rainy", "mild", "high", "true", "no"],
];

fn schema() -> Arc<Schema> {
    SchemaBuilder::new()
        .nominal("outlook", ["sunny", "overcast", "rainy"])
        .nominal("temperature", ["hot", "mild", "cool"])
        .nominal("humidity", ["high", "normal"])
        .nominal("windy", ["false", "true"])
        .nominal("play", ["yes", "no"])
        .build()
        .unwrap()
}

fn table() -> Table {
    let schema = schema();
    let mut t = Table::new(schema.clone());
    for row in ROWS {
        let record: Vec<Value> = row
            .iter()
            .enumerate()
            .map(|(a, label)| {
                let code = schema.attr(a).code(label).expect("label of the domain");
                Value::Nominal(code)
            })
            .collect();
        t.push_row(&record).unwrap();
    }
    t
}

/// `[yes, no]` counts of the rows in each branch of `attr`, in domain
/// order, straight from the text of the table.
fn partition(attr: usize, labels: &[&str]) -> Vec<Vec<f64>> {
    labels
        .iter()
        .map(|label| {
            let rows = ROWS.iter().filter(|r| r[attr] == *label);
            let yes = rows.clone().filter(|r| r[PLAY] == "yes").count() as f64;
            let no = rows.filter(|r| r[PLAY] == "no").count() as f64;
            vec![yes, no]
        })
        .collect()
}

#[test]
fn gain_ratios_at_the_root_match_the_hand_worked_values() {
    let parent = [9.0, 5.0];
    let cases = [
        ("outlook", partition(OUTLOOK, &["sunny", "overcast", "rainy"]), 0.156),
        ("humidity", partition(HUMIDITY, &["high", "normal"]), 0.152),
        ("windy", partition(WINDY, &["false", "true"]), 0.049),
        ("temperature", partition(TEMPERATURE, &["hot", "mild", "cool"]), 0.019),
    ];
    for (name, parts, expected) in cases {
        let got = dq_stats::gain_ratio(&parent, &parts);
        assert!((got - expected).abs() < 1e-3, "{name}: gain ratio {got}, hand-worked {expected}");
    }
}

/// The leaf's `[yes, no]` counts; panics on a split.
fn leaf(node: &Node) -> &[f64] {
    match node {
        Node::Leaf { counts, .. } => counts,
        Node::Split { attr, .. } => panic!("expected a leaf, got a split on attribute {attr}"),
    }
}

/// The children of a nominal split on `attr`; panics otherwise.
fn split_on(node: &Node, attr: usize) -> &[Node] {
    match node {
        Node::Split { attr: a, kind: SplitKind::Nominal, children, .. } if *a == attr => children,
        other => panic!("expected a nominal split on attribute {attr}, got {other:?}"),
    }
}

#[test]
fn unpruned_c45_grows_the_textbook_tree() {
    let t = table();
    let train = TrainingSet::full(&t, PLAY, 4).unwrap();
    let cfg = C45Config {
        pruning: Pruning::None,
        min_inst: 0.0,
        min_split: 0.0,
        min_branch: 0.0,
        ..C45Config::default()
    };
    let tree = C45Inducer::new(cfg).induce_tree(&train).unwrap();

    // outlook = sunny | overcast | rainy
    let outlook = split_on(tree.root(), OUTLOOK);
    assert_eq!(outlook.len(), 3);
    // sunny: humidity = high -> no, normal -> yes
    let sunny = split_on(&outlook[0], HUMIDITY);
    assert_eq!(leaf(&sunny[0]), [0.0, 3.0]);
    assert_eq!(leaf(&sunny[1]), [2.0, 0.0]);
    // overcast -> yes
    assert_eq!(leaf(&outlook[1]), [4.0, 0.0]);
    // rainy: windy = false -> yes, true -> no
    let rainy = split_on(&outlook[2], WINDY);
    assert_eq!(leaf(&rainy[0]), [3.0, 0.0]);
    assert_eq!(leaf(&rainy[1]), [0.0, 2.0]);

    assert_eq!(tree.n_leaves(), 5);
    assert_eq!(tree.depth(), 3);
}

/// The weather table with Quinlan's numeric temperature and humidity:
/// `(temperature, humidity, play)` in the row order of [`ROWS`].
const NUMERIC_ROWS: [(f64, f64, &str); 14] = [
    (85.0, 85.0, "no"),
    (80.0, 90.0, "no"),
    (83.0, 86.0, "yes"),
    (70.0, 96.0, "yes"),
    (68.0, 80.0, "yes"),
    (65.0, 70.0, "no"),
    (64.0, 65.0, "yes"),
    (72.0, 95.0, "no"),
    (69.0, 70.0, "yes"),
    (75.0, 80.0, "yes"),
    (75.0, 70.0, "yes"),
    (72.0, 90.0, "yes"),
    (81.0, 75.0, "yes"),
    (71.0, 91.0, "no"),
];

fn numeric_table() -> Table {
    let schema = SchemaBuilder::new()
        .numeric("temperature", 60.0, 90.0)
        .numeric("humidity", 60.0, 100.0)
        .nominal("play", ["yes", "no"])
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    for (temperature, humidity, play) in NUMERIC_ROWS {
        let play = Value::Nominal(u32::from(play == "no"));
        t.push_row(&[Value::Number(temperature), Value::Number(humidity), play]).unwrap();
    }
    t
}

/// The threshold of a binary split on `attr`; panics otherwise.
fn threshold_on(node: &Node, attr: usize) -> f64 {
    match node {
        Node::Split { attr: a, kind: SplitKind::Threshold(t), .. } if *a == attr => *t,
        other => panic!("expected a threshold split on attribute {attr}, got {other:?}"),
    }
}

/// The cut maximizing `dq_stats::gain_ratio` among every cut between
/// adjacent distinct values of the given columns whose two sides both
/// hold at least `min_branch` rows: `(column, threshold, gain ratio)`.
fn brute_force_cut(columns: &[usize], min_branch: usize) -> (usize, f64, f64) {
    let value = |row: &(f64, f64, &str), column: usize| if column == 0 { row.0 } else { row.1 };
    let mut best: Option<(usize, f64, f64)> = None;
    for &column in columns {
        let mut values: Vec<f64> = NUMERIC_ROWS.iter().map(|r| value(r, column)).collect();
        values.sort_by(f64::total_cmp);
        values.dedup();
        for &cut in &values[..values.len() - 1] {
            let side = |low: bool| {
                let rows = NUMERIC_ROWS.iter().filter(|r| (value(r, column) <= cut) == low);
                let yes = rows.clone().filter(|r| r.2 == "yes").count() as f64;
                vec![yes, rows.count() as f64 - yes]
            };
            let parts = vec![side(true), side(false)];
            if parts.iter().any(|p| p.iter().sum::<f64>() < min_branch as f64) {
                continue;
            }
            let ratio = dq_stats::gain_ratio(&[9.0, 5.0], &parts);
            if best.is_none_or(|(_, _, r)| ratio > r) {
                best = Some((column, cut, ratio));
            }
        }
    }
    best.expect("some cut is feasible")
}

fn grow_on(t: &Table, bases: Vec<usize>, config: &C45Config) -> DecisionTree {
    let train = TrainingSet::new(t, 2, bases, 4).unwrap();
    C45Inducer::new(config.clone()).induce_tree(&train).unwrap()
}

#[test]
fn numeric_root_cut_matches_the_hand_worked_threshold_and_brute_force() {
    let t = numeric_table();
    let config = C45Config { pruning: Pruning::None, ..C45Config::default() };
    let min_branch = config.min_branch as usize;
    assert_eq!(min_branch, 4, "the hand-worked values assume branches of at least 4 rows");

    // By hand: cuts with a side of fewer than 4 rows are out. Humidity
    // <= 80 sends 7 rows (6 yes, 1 no) low and 7 (3 yes, 4 no) high:
    // gain 0.940 - 0.5 * 0.592 - 0.5 * 0.985 = 0.152 with split info
    // 1, so gain ratio 0.152. The best feasible temperature cut, <= 70
    // (4 yes, 1 no | 5 yes, 4 no), gains only 0.045, below the average
    // gain of the two candidates, so humidity is the root.
    let tree = grow_on(&t, vec![0, 1], &config);
    assert_eq!(threshold_on(tree.root(), 1), 80.0);
    let (column, cut, ratio) = brute_force_cut(&[0, 1], min_branch);
    assert_eq!((column, cut), (1, 80.0));
    assert!((ratio - 0.152).abs() < 1e-3, "gain ratio {ratio}");

    // Each attribute alone: its scan lands on the brute-force optimum.
    // Temperature's window opens at 69 | 70 and 70 | 71 closes a run of
    // four `yes` groups, so the winning cut sits at a run edge.
    for (column, hand_worked) in [(0, 70.0), (1, 80.0)] {
        let tree = grow_on(&t, vec![column], &config);
        assert_eq!(threshold_on(tree.root(), column), hand_worked, "column {column}");
        let (_, cut, _) = brute_force_cut(&[column], min_branch);
        assert_eq!(cut, hand_worked, "column {column}");
    }
}

/// A 64-bit linear congruential generator (Knuth's MMIX constants), so
/// the random tables below depend on nothing but this file.
struct Lcg(u64);

impl Lcg {
    /// A draw in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % bound
    }
}

/// `dq_stats::info_gain` of cutting `rows` (value, class) at `cut`, or
/// `None` when a side holds fewer than `min_branch` rows.
fn cut_gain(rows: &[(f64, usize)], cut: f64, min_branch: usize) -> Option<f64> {
    let mut parts = vec![vec![0.0; 3]; 2];
    for &(x, y) in rows {
        parts[usize::from(x > cut)][y] += 1.0;
    }
    let parent: Vec<f64> = (0..3).map(|k| parts[0][k] + parts[1][k]).collect();
    if parts.iter().any(|p| p.iter().sum::<f64>() < min_branch as f64) {
        return None;
    }
    Some(dq_stats::info_gain(&parent, &parts))
}

/// The scan skips cuts inside same-class runs and clips runs at the
/// min-branch window; on random tables full of value ties and class
/// runs, the cut it picks must still score the best information gain of
/// every feasible cut between adjacent distinct values, by brute force.
#[test]
fn threshold_scan_never_skips_the_best_cut_on_random_tables() {
    let schema =
        SchemaBuilder::new().numeric("x", 0.0, 20.0).nominal("y", ["a", "b", "c"]).build().unwrap();
    let config = C45Config { pruning: Pruning::None, ..C45Config::default() };
    let min_branch = config.min_branch as usize;
    let mut rng = Lcg(2003);
    let mut splits = 0;
    for case in 0..300 {
        let n = 12 + rng.below(30) as usize;
        // Ascending values keep their class with probability 0.7, so
        // same-class runs of random lengths form, often shorter than a
        // branch may be; one row in twenty is noise.
        let mut class_of = vec![rng.below(3)];
        for _ in 1..20 {
            let last = class_of[class_of.len() - 1];
            class_of.push(if rng.below(10) < 3 { rng.below(3) } else { last });
        }
        let mut rows = Vec::with_capacity(n);
        let mut t = Table::new(schema.clone());
        for _ in 0..n {
            let x = rng.below(20);
            let y = if rng.below(20) == 0 { rng.below(3) } else { class_of[x as usize] } as usize;
            let x = x as f64;
            rows.push((x, y));
            t.push_row(&[Value::Number(x), Value::Nominal(y as u32)]).unwrap();
        }
        let mut values: Vec<f64> = rows.iter().map(|r| r.0).collect();
        values.sort_by(f64::total_cmp);
        values.dedup();
        let best = values[..values.len() - 1]
            .iter()
            .filter_map(|&cut| cut_gain(&rows, cut, min_branch))
            .fold(f64::NEG_INFINITY, f64::max);
        let train = TrainingSet::full(&t, 1, 4).unwrap();
        let tree = C45Inducer::new(config.clone()).induce_tree(&train).unwrap();
        match tree.root() {
            Node::Split { kind: SplitKind::Threshold(cut), .. } => {
                let gain = cut_gain(&rows, *cut, min_branch).expect("the chosen cut is feasible");
                assert!(gain >= best - 1e-12, "case {case}: cut {cut} gains {gain}, best {best}");
                splits += 1;
            }
            Node::Leaf { .. } => assert!(best <= 1e-9, "case {case}: no split, best gain {best}"),
            other => panic!("case {case}: unexpected root {other:?}"),
        }
    }
    assert!(splits >= 250, "only {splits} of 300 tables split at the root");
}

/// The Wilson score interval's upper bound on an error rate `p`
/// observed over `n` instances, at the two-sided 95 % level.
fn wilson_upper(p: f64, n: f64) -> f64 {
    let z: f64 = 1.959_963_984_540_054;
    let z2 = z * z;
    (p + z2 / (2.0 * n) + z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt()) / (1.0 + z2 / n)
}

/// `a` and `b` predict `y`: `a = 0` rows are all class 0; among `a = 1`
/// rows, `b = 1` is all class 1 and `b = 0` holds two class-0 rows in
/// ten. Both splits are grown; pessimistic pruning collapses the `b`
/// split and keeps the `a` split.
fn pruning_table() -> Table {
    let schema = SchemaBuilder::new()
        .nominal("a", ["0", "1"])
        .nominal("b", ["0", "1"])
        .nominal("y", ["0", "1"])
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    let mut push = |a: u32, b: u32, y: u32, n: usize| {
        for _ in 0..n {
            t.push_row(&[Value::Nominal(a), Value::Nominal(b), Value::Nominal(y)]).unwrap();
        }
    };
    push(0, 0, 0, 10);
    push(0, 1, 0, 10);
    push(1, 0, 0, 2);
    push(1, 0, 1, 8);
    push(1, 1, 1, 10);
    t
}

#[test]
fn pessimistic_pruning_collapses_exactly_the_splits_the_wilson_bound_condemns() {
    // The `b` split under `a = 1`: as a leaf, 2 errors in 20; as a
    // split, 2 in 10 and 0 in 10, weighted by branch size.
    let inner_leaf = wilson_upper(2.0 / 20.0, 20.0);
    let inner_split = 0.5 * wilson_upper(2.0 / 10.0, 10.0) + 0.5 * wilson_upper(0.0, 10.0);
    assert!((inner_leaf - 0.301).abs() < 1e-3, "{inner_leaf}");
    assert!((inner_split - 0.394).abs() < 1e-3, "{inner_split}");
    assert!(inner_leaf <= inner_split, "the leaf is no worse: the split goes");
    // The root `a` split, judged after its child collapsed: as a leaf,
    // 18 errors in 40; as a split, 0 in 20 and 2 in 20.
    let root_leaf = wilson_upper(18.0 / 40.0, 40.0);
    let root_split = 0.5 * wilson_upper(0.0, 20.0) + 0.5 * wilson_upper(2.0 / 20.0, 20.0);
    assert!((root_leaf - 0.602).abs() < 1e-3, "{root_leaf}");
    assert!((root_split - 0.231).abs() < 1e-3, "{root_split}");
    assert!(root_leaf > root_split, "the split is better: it stays");

    let t = pruning_table();
    let train = TrainingSet::full(&t, 2, 4).unwrap();
    let grow = |pruning| {
        let config = C45Config { pruning, ..C45Config::default() };
        C45Inducer::new(config).induce_tree(&train).unwrap()
    };
    // Unpruned, both splits are there.
    let grown = grow(Pruning::None);
    let a = split_on(grown.root(), 0);
    assert_eq!(leaf(&a[0]), [20.0, 0.0]);
    let b = split_on(&a[1], 1);
    assert_eq!(leaf(&b[0]), [2.0, 8.0]);
    assert_eq!(leaf(&b[1]), [0.0, 10.0]);
    // Pruned, the `b` split is one leaf and the `a` split remains.
    let pruned = grow(Pruning::PessimisticError);
    let a = split_on(pruned.root(), 0);
    assert_eq!(leaf(&a[0]), [20.0, 0.0]);
    assert_eq!(leaf(&a[1]), [2.0, 18.0]);
    assert_eq!(pruned.n_leaves(), 2);
}
