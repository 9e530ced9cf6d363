//! Equivalence suite for the compiled/parallel test-data generator.
//!
//! `dq_tdg::generate_table` (compiled rule programs, dirty-attribute
//! invalidation, worker-pool sharding) must emit byte-identical tables
//! and equal reports at every thread count, and its bytes on the
//! paper's 100-rule baseline are frozen below. Every generated table is
//! also checked against the `dq_logic` interpreter, which shares no
//! code with the compiled programs: its row-by-row `eval_rule` count of
//! violations must equal the report's unresolved violations, every row
//! must pass the validating `Table::push_row`, and the rule set must be
//! natural (Defs. 5–6). The quis-50k fixture checks the compiled
//! pollution-side violation accounting against the same interpreter.

use data_audit::eval::Baseline;
use data_audit::job::fnv1a;
use data_audit::logic::{eval_rule, is_natural_rule_set, RuleStatus};
use data_audit::pollute::{count_violations, unexplained_violations, violating_rows};
use data_audit::prelude::*;
use data_audit::quis::{generate_quis, QuisConfig};
use data_audit::tdg::{generate_rule_set, GenReport, RuleGenReport, GEN_CHUNK_ROWS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// The frozen digests below were recorded while a serial interpreted
// reference generator (per-repair `negate`, a full `eval_rule` re-scan
// of the rule set every pass, the uncached rule-set generator) was
// checked to emit the same bytes and reports.

/// FNV-1a of the 100-rule baseline's clean CSV at seed 11.
const BASELINE_CLEAN_FNV1A: u64 = 0xf857_d30d_c79a_c2d9;
/// FNV-1a of the rendered 100-rule baseline rule set at seed 7.
const BASELINE_RULES_FNV1A: u64 = 0x2fd4_dd0d_084a_0afd;
/// FNV-1a of the rendered 60-rule set at seed 7.
const RULES_60_FNV1A: u64 = 0x6fd7_7a14_13f7_1966;

/// Bit-exact cell comparison (floats compared by bit pattern — "byte
/// identical" means byte identical).
fn cells_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn assert_tables_identical(a: &Table, b: &Table) {
    assert_eq!(a.n_rows(), b.n_rows(), "row counts differ");
    assert_eq!(a.n_cols(), b.n_cols(), "column counts differ");
    for r in 0..a.n_rows() {
        for c in 0..a.n_cols() {
            assert!(
                cells_identical(&a.get(r, c), &b.get(r, c)),
                "cell ({r}, {c}): {:?} vs {:?}",
                a.get(r, c),
                b.get(r, c)
            );
        }
    }
}

/// Rows of `table` violating `rule`, by the interpreter row by row.
fn interpreted_violations(rule: &Rule, table: &Table) -> Vec<usize> {
    (0..table.n_rows())
        .filter(|&r| eval_rule(rule, &table.row(r)) == RuleStatus::Violated)
        .collect()
}

/// What every generated benchmark must satisfy by the interpreter and
/// the validating table API, whatever generator produced it.
fn check_against_interpreter(b: &GeneratedBenchmark) {
    let total: usize = b.rules.iter().map(|r| interpreted_violations(r, &b.clean).len()).sum();
    assert_eq!(total as u64, b.gen_report.unresolved_violations, "unresolved violations");
    assert_eq!(b.gen_report.rows, b.clean.n_rows());
    // The generator appends with the kind-only `push_row_lenient`; the
    // validating `push_row` must accept every row it wrote.
    let mut revalidated = Table::new(b.schema.clone());
    for r in 0..b.clean.n_rows() {
        revalidated.push_row(&b.clean.row(r)).unwrap_or_else(|e| panic!("row {r}: {e}"));
    }
    assert!(is_natural_rule_set(&b.schema, &b.rules.rules), "the rule set must be natural");
}

fn csv_fnv1a(table: &Table) -> u64 {
    let mut bytes = Vec::new();
    write_csv(table, &mut bytes).expect("in-memory CSV write");
    fnv1a(&bytes)
}

fn rules_fnv1a(rules: &RuleSet, schema: &Schema) -> u64 {
    fnv1a(rules.render(schema).as_bytes())
}

/// The compiled, pool-sharded generator emits the same bytes at threads
/// 1, 2 and 4 on the paper's 100-rule baseline across a chunk boundary,
/// and those bytes are frozen.
#[test]
fn parallel_generation_is_byte_identical_to_reference() {
    let baseline = Baseline::new(7);
    let mut rng = StdRng::seed_from_u64(7);
    let (rules, _) = generate_rule_set(&baseline.schema, &baseline.rule_config(100), &mut rng);
    let rows = GEN_CHUNK_ROWS + GEN_CHUNK_ROWS / 2; // crosses a chunk boundary
    let mut generator = baseline.generator(100, rows);

    let mut first: Option<GeneratedBenchmark> = None;
    for threads in [1usize, 2, 4] {
        generator.data.threads = threads.into();
        let fast = generator.generate_with_rules(&rules, &mut StdRng::seed_from_u64(11));
        match &first {
            None => first = Some(fast),
            Some(a) => {
                assert_eq!(fast.gen_report, a.gen_report, "threads={threads}");
                assert_tables_identical(&fast.clean, &a.clean);
            }
        }
    }
    let b = first.expect("three runs");
    check_against_interpreter(&b);

    assert_eq!(csv_fnv1a(&b.clean), BASELINE_CLEAN_FNV1A, "baseline clean table drifted");
    assert_eq!(rules_fnv1a(&rules, &b.schema), BASELINE_RULES_FNV1A, "baseline rules drifted");
    assert_eq!(
        b.gen_report,
        GenReport { rows, repairs: 18_415, unresolved_rows: 0, unresolved_violations: 0 }
    );
}

/// The memoized rule-set generator's 60-rule baseline set at seed 7 is
/// frozen, and it is natural.
#[test]
fn rule_generation_is_byte_identical_to_reference() {
    let baseline = Baseline::new(7);
    let cfg = baseline.rule_config(60);
    let (rules, report) = generate_rule_set(&baseline.schema, &cfg, &mut StdRng::seed_from_u64(7));
    assert!(is_natural_rule_set(&baseline.schema, &rules.rules));
    assert_eq!(rules_fnv1a(&rules, &baseline.schema), RULES_60_FNV1A, "60-rule set drifted");
    assert_eq!(
        report,
        RuleGenReport {
            accepted: 60,
            rejected_unnatural: 493,
            rejected_conflict: 550,
            exhausted: false
        }
    );
}

/// The quis-50k fixture: pollution logs are deterministic and
/// complete, and the compiled violation accounting in `dq_pollute`
/// agrees with the interpreted per-rule scans.
#[test]
fn quis_50k_pollution_logs_and_violation_scans_agree() {
    let cfg = QuisConfig::default().with_rows(50_000);
    let a = generate_quis(&cfg, &mut StdRng::seed_from_u64(42));
    let b = generate_quis(&cfg, &mut StdRng::seed_from_u64(42));

    // The pollution pipeline is untouched by the compiled layer: two
    // runs are byte-identical, log included.
    assert_tables_identical(&a.clean, &b.clean);
    assert_tables_identical(&a.dirty, &b.dirty);
    assert_eq!(a.log.cells.len(), b.log.cells.len());
    assert_eq!(a.log.provenance, b.log.provenance);
    assert_eq!(a.log.deleted_clean_rows, b.log.deleted_clean_rows);
    for (x, y) in a.log.cells.iter().zip(&b.log.cells) {
        assert_eq!(x, y);
    }

    // Compiled violation accounting == interpreted scans.
    let schema = a.dirty.schema();
    let rules = RuleSet::from_rules(vec![
        parse_rule(schema, "brv = 404 -> gbm = 901").unwrap(),
        parse_rule(schema, "kbm = 01 and gbm = 901 -> brv = 501").unwrap(),
    ]);
    let counts = count_violations(&a.dirty, &rules);
    for (i, rule) in rules.iter().enumerate() {
        assert_eq!(counts[i], interpreted_violations(rule, &a.dirty).len(), "rule {i}");
    }
    assert_eq!(count_violations(&a.clean, &rules), vec![0, 0], "clean table follows the rules");

    // Every violating dirty row is a logged corruption: pollution is
    // the only source of rule violations.
    assert!(unexplained_violations(&a.dirty, &rules, &a.log).is_empty());
    assert!(!violating_rows(&a.dirty, &rules).is_empty(), "pollution must break something");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// On random small schemas, rule counts and row counts (several RNG
    /// chunks when rows allow), 1 and 3 worker threads emit the same
    /// bytes, and the output passes the interpreter checks.
    #[test]
    fn generation_equivalence_on_random_configs(
        seed in 0u64..5_000,
        n_rules in 0usize..10,
        rows in 50usize..400,
        card in 3usize..6,
    ) {
        let schema = SchemaBuilder::new()
            .nominal_sized("a", card)
            .nominal_sized("b", card)
            .numeric("x", 0.0, 50.0)
            .build()
            .unwrap();
        let generator = TestDataGenerator::new(schema, n_rules, rows);
        let mut gen_rng = StdRng::seed_from_u64(seed);
        let b = generator.generate(&mut gen_rng);
        let mut runs = Vec::new();
        for threads in [1usize, 3] {
            let mut g = generator.clone();
            g.data.threads = threads.into();
            runs.push(g.generate_with_rules(&b.rules, &mut StdRng::seed_from_u64(seed ^ 1)));
        }
        prop_assert_eq!(&runs[0].gen_report, &runs[1].gen_report);
        assert_tables_identical(&runs[0].clean, &runs[1].clean);
        check_against_interpreter(&runs[0]);
    }
}
