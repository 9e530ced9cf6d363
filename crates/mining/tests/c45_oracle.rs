//! Independent C4.5 oracle: Quinlan's 14-row weather table.
//!
//! The expected numbers are worked by hand from the textbook table
//! (Quinlan 1986; Witten & Frank, *Data Mining*, sec. 4.3), not taken
//! from any implementation in this workspace: the gain ratio of every
//! attribute at the root, and the tree C4.5 grows with pruning off.

use dq_mining::{C45Config, C45Inducer, Node, Pruning, SplitKind, TrainingSet};
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
