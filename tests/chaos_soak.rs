//! The chaos soak: hundreds of seeded fault schedules against every
//! exposed layer, each run replayable from its seed alone.
//!
//! The invariant under test, everywhere: **loud or identical**. A run
//! wrapped in a [`FaultPlan`] either
//!
//! * completes with output byte-identical to the fault-free run
//!   (benign plans — `short`/`latency` — *must* land here), or
//! * fails with a typed error; injected hard failures name the exact
//!   fault line and stream position.
//!
//! What is never acceptable: a panic, a hang, or an `Ok` whose output
//! differs from the reference — silent truncation dressed as success.
//!
//! Every schedule is drawn from a fixed seed range, so a red run in CI
//! is a complete reproduction recipe. `DQ_CHAOS_SEED=<u64>` appends
//! one extra schedule per soak — the hook the CI chaos-smoke job uses
//! to add a fresh random seed to every run (printed on failure).

use data_audit::prelude::*;
use data_audit::serve::{client, ModelRegistry, ServeConfig, Server};
use dq_fault::{
    Fault, FaultKind, FaultPlan, FaultProfile, FaultRead, FaultSource, FaultWrite, Unit,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufReader, Cursor, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fixed seed range plus the optional `DQ_CHAOS_SEED` extra.
fn chaos_seeds(base: u64, n: u64) -> Vec<u64> {
    let mut seeds: Vec<u64> = (base..base + n).collect();
    if let Ok(s) = std::env::var("DQ_CHAOS_SEED") {
        seeds.push(s.parse().unwrap_or_else(|_| panic!("DQ_CHAOS_SEED must be a u64, got `{s}`")));
    }
    seeds
}

/// The soak relation: mixed nominal/numeric, enough rows that chunk
/// and batch boundaries land mid-stream.
fn fixture() -> Table {
    let schema = SchemaBuilder::new()
        .nominal("flag", ["on", "off"])
        .nominal("kind", ["a", "b", "c"])
        .numeric("load", 0.0, 100.0)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(2003);
    let mut t = Table::new(schema);
    for _ in 0..1000 {
        let f = rng.gen_range(0..2u32);
        let k = if f == 0 { 0 } else { rng.gen_range(1..3u32) };
        let load = if f == 0 { rng.gen_range(5.0..20.0) } else { rng.gen_range(60.0..90.0) };
        t.push_row(&[Value::Nominal(f), Value::Nominal(k), Value::Number(load)]).unwrap();
    }
    t
}

fn csv_bytes(table: &Table) -> Vec<u8> {
    let mut buf = Vec::new();
    write_csv(table, &mut buf).unwrap();
    buf
}

/// Row-range equality at the bit level (f64s compare by `to_bits`).
fn assert_rows_bit_equal(got: &Table, reference: &Table, rows: usize, context: &str) {
    assert!(rows <= reference.n_rows(), "{context}: {rows} rows exceeds the reference");
    for r in 0..rows {
        for c in 0..reference.n_cols() {
            match (got.get(r, c), reference.get(r, c)) {
                (Value::Number(x), Value::Number(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "{context}: row {r} col {c}");
                }
                (x, y) => assert_eq!(x, y, "{context}: row {r} col {c}"),
            }
        }
    }
}

/// Drain a source without unwrapping: the accumulated prefix and the
/// terminal outcome.
fn drain(mut source: impl BatchSource) -> (Table, Result<(), String>) {
    let mut out = Table::new(source.schema().clone());
    loop {
        match source.next_batch() {
            Ok(Some(batch)) => {
                assert!(!batch.is_empty(), "batches must never be empty");
                out.append_rows(&batch).unwrap();
            }
            Ok(None) => return (out, Ok(())),
            Err(e) => return (out, Err(e.to_string())),
        }
    }
}

/// The earliest content-changing fault in `unit`, by anchor.
fn earliest_disruptive(plan: &FaultPlan, unit: Unit) -> Option<Fault> {
    plan.in_unit(unit).into_iter().find(|f| f.is_disruptive())
}

/// 120 seeded schedules against a [`FaultSource`]-wrapped pipeline
/// stage. Batch anchors are drawn below the emitted batch count, so
/// every disruptive schedule is guaranteed to trip — and must trip
/// loudly, after emitting only a bit-clean prefix.
#[test]
fn fault_source_soak_is_loud_or_identical() {
    let reference = fixture();
    let batch_rows = 64usize;
    let n_batches = reference.n_rows().div_ceil(batch_rows) as u64;
    let profile = FaultProfile { max_byte: 0, max_batch: n_batches, ..FaultProfile::default() };

    for seed in chaos_seeds(10_000, 120) {
        let plan = FaultPlan::seeded(seed, &profile);
        let context = format!("seed {seed}, plan:\n{}", plan.render());
        let source = FaultSource::new(reference.batches(batch_rows), &plan);
        let (prefix, outcome) = drain(source);

        // Whatever was emitted is a bit-clean prefix of the reference
        // — a fault may cut the stream, never corrupt it.
        assert_rows_bit_equal(&prefix, &reference, prefix.n_rows(), &context);
        match outcome {
            Ok(()) => {
                assert!(
                    !plan.disrupts_within(Unit::Batch, n_batches),
                    "{context}: a disruptive schedule completed silently"
                );
                assert_eq!(prefix.n_rows(), reference.n_rows(), "{context}");
            }
            Err(message) => {
                assert!(!plan.is_benign(), "{context}: a benign schedule failed with: {message}");
                assert!(
                    message.contains("injected fault:"),
                    "{context}: error does not name the fault: {message}"
                );
            }
        }
    }
}

/// 120 seeded schedules against the byte layer: CSV parsing through a
/// [`FaultRead`], with the out-of-band row count arming truncation
/// detection. Torn reads are honest early EOFs, so the *reader* must
/// turn them into typed errors — never a quietly shorter table.
#[test]
fn fault_read_csv_soak_is_loud_or_identical() {
    let reference = fixture();
    let bytes = csv_bytes(&reference);
    let len = bytes.len() as u64;
    let profile = FaultProfile { max_byte: len, max_batch: 0, ..FaultProfile::default() };

    for seed in chaos_seeds(20_000, 120) {
        let plan = FaultPlan::seeded(seed, &profile);
        let context = format!("seed {seed}, plan:\n{}", plan.render());
        let reader = BufReader::new(FaultRead::new(Cursor::new(bytes.clone()), &plan));
        let outcome = CsvChunkReader::new(reference.schema().clone(), reader, 97)
            .map(|r| r.with_expected_rows(reference.n_rows()))
            .map(drain);

        match outcome {
            Ok((prefix, Ok(()))) => {
                // Completion requires byte-identity — there is no such
                // thing as a successfully truncated run.
                assert_eq!(prefix.n_rows(), reference.n_rows(), "{context}");
                assert_rows_bit_equal(&prefix, &reference, reference.n_rows(), &context);
            }
            Ok((prefix, Err(message))) => {
                assert!(!plan.is_benign(), "{context}: benign schedule failed: {message}");
                // A tear mid-cell can leave one plausibly-parsed final
                // row (CSV has no checksums); every row before it must
                // be bit-clean, and the stream must have stopped short.
                assert!(prefix.n_rows() < reference.n_rows(), "{context}");
                let clean = prefix.n_rows().saturating_sub(1);
                assert_rows_bit_equal(&prefix, &reference, clean, &context);
                if let Some(f) = earliest_disruptive(&plan, Unit::Byte) {
                    if f.kind == FaultKind::Error {
                        assert!(
                            message.contains("injected fault:"),
                            "{context}: error does not name the fault: {message}"
                        );
                    }
                }
            }
            Err(construct) => {
                // Header reads can trip the fault too — fine, as long
                // as it is loud and the schedule could disrupt.
                assert!(
                    !plan.is_benign(),
                    "{context}: benign schedule failed at open: {construct}"
                );
            }
        }
        // Disruptive schedules must not complete: every anchor is
        // below the stream length, except a tear inside the final
        // newline, which loses no data.
        if let Some(f) = earliest_disruptive(&plan, Unit::Byte) {
            let harmless_tear = f.kind == FaultKind::Truncate && f.at >= len - 1;
            let completed = matches!(
                CsvChunkReader::new(
                    reference.schema().clone(),
                    BufReader::new(FaultRead::new(Cursor::new(bytes.clone()), &plan)),
                    97,
                )
                .map(|r| r.with_expected_rows(reference.n_rows()))
                .map(drain),
                Ok((_, Ok(())))
            );
            assert!(
                !completed || harmless_tear,
                "{context}: disruptive schedule completed silently"
            );
        }
    }
}

/// 60 seeded schedules against the write side: a [`FaultWrite`] tear
/// acknowledges bytes without persisting them — the page-cache crash
/// model — so the *reader* of the torn artifact must detect the tear
/// from framing. Round-trips every surviving artifact.
#[test]
fn fault_write_tears_are_detected_on_read_back() {
    let reference = fixture();
    let bytes = csv_bytes(&reference);
    let len = bytes.len() as u64;
    let profile = FaultProfile { max_byte: len, max_batch: 0, ..FaultProfile::default() };

    for seed in chaos_seeds(30_000, 60) {
        let plan = FaultPlan::seeded(seed, &profile);
        let context = format!("seed {seed}, plan:\n{}", plan.render());
        let mut writer = FaultWrite::new(Vec::new(), &plan);
        // Odd-sized chunks so op boundaries never align with anchors
        // by accident.
        let wrote = bytes.chunks(997).try_for_each(|c| writer.write_all(c));
        if let Err(e) = wrote {
            let message = e.to_string();
            assert!(!plan.is_benign(), "{context}: benign schedule failed: {message}");
            assert!(
                message.contains("injected fault:"),
                "{context}: write error does not name the fault: {message}"
            );
            continue;
        }
        let artifact = writer.into_inner();
        // The write "succeeded" — now the artifact must either be the
        // full file or a tear the reader catches via the expected row
        // count. Parsing it back is the read path `dq detect` runs on
        // a written CSV.
        let outcome = CsvChunkReader::new(
            reference.schema().clone(),
            BufReader::new(Cursor::new(artifact.clone())),
            97,
        )
        .map(|r| r.with_expected_rows(reference.n_rows()))
        .map(drain);
        match outcome {
            Ok((prefix, Ok(()))) => {
                // Completes only when nothing (or only the trailing
                // newline) was lost: the parsed relation is identical.
                assert_eq!(prefix.n_rows(), reference.n_rows(), "{context}");
                assert_rows_bit_equal(&prefix, &reference, reference.n_rows(), &context);
            }
            Ok((_, Err(_))) | Err(_) => {
                assert!(
                    artifact.len() < bytes.len(),
                    "{context}: full artifact failed to parse back"
                );
            }
        }
    }
}

/// The daemon under chaos: concurrent clients posting clean streams
/// and torn bodies (prefixes cut by seeded write tears), then a drain.
/// Every request is answered, the server never panics, torn bodies
/// get typed `400`s exactly when a local parse of the same bytes
/// fails, new connections are refused with the *draining* `503` once
/// the drain begins — and `/stats` reconciles to the request exactly.
#[test]
fn daemon_chaos_soak_reconciles_stats_under_drain() {
    let table = fixture();
    let auditor = Auditor::default();
    let engine =
        data_audit::core::AuditEngine::new(auditor.induce(&table).unwrap(), table.schema().clone());
    let fingerprint = format!("{:016x}", engine.fingerprint());
    let mut registry = ModelRegistry::new();
    registry.insert("chaos", engine).unwrap();

    let server = Server::bind(
        "127.0.0.1:0",
        registry,
        ServeConfig { workers: 3, queue_depth: 64, ..ServeConfig::default() },
    )
    .unwrap();
    let addr = server.addr();
    let bytes = Arc::new(csv_bytes(&table));
    let table = Arc::new(table);

    let requests = AtomicU64::new(0);
    let records = AtomicU64::new(0);
    let errors = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for thread_id in 0..4u64 {
            let bytes = bytes.clone();
            let table = table.clone();
            let (requests, records, errors) = (&requests, &records, &errors);
            scope.spawn(move || {
                for i in 0..10u64 {
                    let seed = 40_000 + thread_id * 100 + i;
                    // Even iterations: the clean stream. Odd: a body
                    // torn by a seeded truncate fault.
                    let body: Vec<u8> = if i % 2 == 0 {
                        bytes.to_vec()
                    } else {
                        let profile = FaultProfile {
                            max_byte: bytes.len() as u64,
                            max_batch: 0,
                            max_faults: 1,
                            ..FaultProfile::default()
                        };
                        // Redraw until the schedule holds a tear (seeded
                        // → the redraw walk itself is replayable).
                        let mut s = seed;
                        let plan = loop {
                            let p = FaultPlan::seeded(s, &profile);
                            if p.faults.iter().any(|f| f.kind == FaultKind::Truncate) {
                                break p;
                            }
                            s += 1;
                        };
                        let mut w = FaultWrite::new(Vec::new(), &plan);
                        let _ = w.write_all(&bytes);
                        w.into_inner()
                    };
                    // The oracle: the server must agree with a local
                    // parse of the exact same bytes. No expected row
                    // count here — the server has no out-of-band count
                    // either, so a tear at a row boundary legitimately
                    // audits short (the CSV wire format cannot carry
                    // more truth than it frames).
                    let local = CsvChunkReader::new(
                        table.schema().clone(),
                        BufReader::new(Cursor::new(body.clone())),
                        97,
                    )
                    .map(drain);
                    let resp = client::post(addr, "/audit/chaos/stream", &[], &body)
                        .unwrap_or_else(|e| {
                            panic!("seed {seed}: request dropped: {e}");
                        });
                    requests.fetch_add(1, Ordering::Relaxed);
                    match local {
                        Ok((prefix, Ok(()))) => {
                            assert_eq!(resp.status, 200, "seed {seed}: {}", resp.body_str());
                            records.fetch_add(prefix.n_rows() as u64, Ordering::Relaxed);
                        }
                        _ => {
                            assert_eq!(resp.status, 400, "seed {seed}: {}", resp.body_str());
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Keep-alive connections opened *before* the drain: the server
    // keeps serving connections it already holds, which is how an
    // operator reads the final /stats off a draining server. Each one
    // is good for exactly one post-drain request — draining responses
    // force `Connection: close`.
    let mut health_conn = client::Connection::open(addr).unwrap();
    let mut stats_conn = client::Connection::open(addr).unwrap();
    // Warm both so a worker actually holds them (a connection still in
    // the accept backlog when the flag flips is refused, not held).
    for conn in [&mut health_conn, &mut stats_conn] {
        let warm = conn.request("GET", "/health", &[], b"").unwrap();
        assert_eq!(warm.status, 200);
    }

    // Drain: new connections are refused with the draining 503 (no
    // Retry-After — this server is not coming back) and the client
    // classifies it as terminal.
    server.begin_drain();
    let refused = client::post(addr, "/audit/chaos/stream", &[], &bytes).unwrap();
    assert_eq!(refused.status, 503, "{}", refused.body_str());
    assert_eq!(refused.unavailable(), Some(client::Unavailable::Draining));
    let health = health_conn.request("GET", "/health", &[], b"").unwrap();
    assert_eq!(health.status, 503);
    assert_eq!(health.body_str(), "draining\n");

    let stats = stats_conn.request("GET", "/stats", &[], b"").unwrap();
    assert_eq!(stats.status, 200);
    let line = stats
        .body_str()
        .lines()
        .find(|l| l.starts_with("chaos,"))
        .unwrap_or_else(|| panic!("no stats row for chaos:\n{}", stats.body_str()));
    let fields: Vec<&str> = line.split(',').collect();
    assert_eq!(fields[1], fingerprint, "{line}");
    assert_eq!(fields[2].parse::<u64>().unwrap(), requests.load(Ordering::Relaxed), "{line}");
    assert_eq!(fields[3].parse::<u64>().unwrap(), records.load(Ordering::Relaxed), "{line}");
    assert_eq!(fields[5].parse::<u64>().unwrap(), errors.load(Ordering::Relaxed), "{line}");

    server.shutdown();
}
