//! The streaming redesign's equivalence contract, pinned end to end:
//!
//! * streamed generation ([`GenerateStream`]) must be **byte-identical**
//!   to the in-memory [`generate_table`] at every batch size × thread
//!   count — CSV bytes AND f64 bit patterns, not approximate equality;
//! * the fault-injection adapters with an empty plan must be a pure
//!   pass-through at every layer.
//!
//! These are the properties that make `--stream-chunk-rows` and the CI
//! `ulimit -v` run trustworthy: streaming is a memory envelope, never
//! a different answer. (Streamed detection is pinned against the
//! in-memory report by `model_roundtrip` and `golden_digests`.)

use data_audit::prelude::*;
use data_audit::tdg::{generate_rule_set, DataGenConfig, GenerateStream, RuleGenConfig};
use dq_fault::{FaultPlan, FaultRead, FaultSource, FaultWrite};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    SchemaBuilder::new()
        .nominal("a", ["v1", "v2", "v3", "v4"])
        .nominal("b", ["v1", "v2", "v3", "v4"])
        .nominal("c", ["w1", "w2", "w3"])
        .numeric("x", 0.0, 100.0)
        .numeric("y", -50.0, 50.0)
        .build()
        .unwrap()
}

fn csv(table: &Table) -> String {
    let mut buf = Vec::new();
    write_csv(table, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// Cell equality at the bit level: numbers compare by `f64::to_bits`,
/// so `-0.0 != 0.0` and byte-identity claims stay honest.
fn assert_cells_bit_equal(a: &Table, b: &Table) {
    assert_eq!(a.n_rows(), b.n_rows());
    for r in 0..a.n_rows() {
        for c in 0..a.n_cols() {
            match (a.get(r, c), b.get(r, c)) {
                (Value::Number(x), Value::Number(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "row {r} col {c}: {x} vs {y}");
                }
                (x, y) => assert_eq!(x, y, "row {r} col {c}"),
            }
        }
    }
}

fn drain(mut source: impl BatchSource) -> Table {
    let mut out = Table::new(source.schema().clone());
    while let Some(batch) = source.next_batch().unwrap() {
        assert!(!batch.is_empty(), "batches must never be empty");
        out.append_rows(&batch).unwrap();
        assert_eq!(source.rows_emitted(), out.n_rows());
    }
    out
}

/// Streamed generation ≡ `generate_table`, across batch sizes
/// {1, 7, 4096} × threads {1, 2, 4}: identical CSV bytes, identical
/// f64 bits, identical generation report, identical caller-RNG
/// consumption.
#[test]
fn generate_stream_matches_generate_table_across_chunks_and_threads() {
    let schema = schema();
    let n_rows = data_audit::tdg::GEN_CHUNK_ROWS + 777;
    let (rules, _) = generate_rule_set(
        &schema,
        &RuleGenConfig { n_rules: 10, ..RuleGenConfig::default() },
        &mut StdRng::seed_from_u64(3),
    );
    let config = DataGenConfig::new(&schema, n_rows);

    let mut rng = StdRng::seed_from_u64(77);
    let (reference, reference_report) =
        data_audit::tdg::generate_table(&schema, &rules, &config, &mut rng);
    let reference_csv = csv(&reference);
    let sentinel: u64 = rng.gen();

    for threads in [1usize, 2, 4] {
        for batch_rows in [1usize, 7, 4096] {
            let mut cfg = config.clone();
            cfg.threads = threads.into();
            let mut rng = StdRng::seed_from_u64(77);
            let mut stream = GenerateStream::new(schema.clone(), rules.clone(), cfg, &mut rng)
                .with_batch_rows(batch_rows);
            // The stream draws its chunk plans at construction and
            // never touches the caller RNG again — downstream seeded
            // pollution sees the same state as after `generate_table`.
            assert_eq!(rng.gen::<u64>(), sentinel, "caller RNG state must match");
            assert_eq!(stream.row_count_hint(), Some(n_rows));
            let streamed = drain(&mut stream);
            assert_eq!(csv(&streamed), reference_csv, "threads={threads} batch_rows={batch_rows}");
            assert_cells_bit_equal(&streamed, &reference);
            assert_eq!(
                stream.report(),
                &reference_report,
                "threads={threads} batch_rows={batch_rows}"
            );
        }
    }
}

/// The zero-fault identity: wrapping any stage of the pipeline in the
/// chaos adapters with an **empty** [`FaultPlan`] changes nothing —
/// same bytes through [`FaultRead`]/[`FaultWrite`], same batches and
/// f64 bits through [`FaultSource`], same caller-visible
/// [`BatchSource`] accounting. This is what makes the chaos soak
/// meaningful: any divergence under a seeded plan is the *plan's*
/// doing, not the wrappers'.
#[test]
fn empty_fault_plan_is_a_pure_pass_through() {
    use std::io::{Read as _, Write as _};

    let schema = schema();
    let (rules, _) = generate_rule_set(
        &schema,
        &RuleGenConfig { n_rules: 8, ..RuleGenConfig::default() },
        &mut StdRng::seed_from_u64(5),
    );
    let config = DataGenConfig::new(&schema, 1500);
    let mut rng = StdRng::seed_from_u64(9);
    let (reference, _) = data_audit::tdg::generate_table(&schema, &rules, &config, &mut rng);
    let reference_csv = csv(&reference);
    let plan = FaultPlan::none();

    // Source level: batch stream unchanged, batch boundaries included.
    let mut wrapped = FaultSource::new(reference.batches(113), &plan);
    assert_eq!(wrapped.row_count_hint(), reference.batches(113).row_count_hint());
    let streamed = drain(&mut wrapped);
    assert_cells_bit_equal(&streamed, &reference);
    assert_eq!(csv(&streamed), reference_csv);

    // Read level: identical bytes through FaultRead.
    let mut read_back = Vec::new();
    FaultRead::new(reference_csv.as_bytes(), &plan).read_to_end(&mut read_back).unwrap();
    assert_eq!(read_back, reference_csv.as_bytes());

    // Write level: identical bytes through FaultWrite.
    let mut writer = FaultWrite::new(Vec::new(), &plan);
    writer.write_all(reference_csv.as_bytes()).unwrap();
    writer.flush().unwrap();
    assert_eq!(writer.into_inner(), reference_csv.as_bytes());
}
