//! Structure-induction scaling: the offline phase of the audit
//! ("the time-consuming structure induction can be prepared off-line").
//! One C4.5 model per attribute, at growing record counts, on the
//! sec. 6.1 baseline and the synthetic QUIS table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dq_bench::{baseline_fixture, quis_fixture};
use dq_core::{AuditConfig, Auditor};

fn induction_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("induction/baseline");
    for &n in &[1_000usize, 5_000, 10_000] {
        let fixture = baseline_fixture(n, 100, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::from_parameter(n), &fixture, |b, f| {
            b.iter(|| f.induce())
        });
    }
    group.finish();
}

fn induction_quis(c: &mut Criterion) {
    let mut group = c.benchmark_group("induction/quis");
    for &n in &[10_000usize, 50_000] {
        let fixture = quis_fixture(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::from_parameter(n), &fixture, |b, f| {
            b.iter(|| f.induce())
        });
    }
    group.finish();
}

/// The parallel fan-out (one C4.5 induction per attribute across the
/// `dq_exec` pool) against the exact serial path (`threads = Some(1)`),
/// on the large fixtures. Equivalence of the *results* is proven by
/// `tests/parallel_equivalence.rs`; this measures the wall-clock side.
fn induction_thread_scaling(c: &mut Criterion) {
    for (name, fixture, rows) in [
        ("induction/threads/baseline-10k", baseline_fixture(10_000, 100, 42), 10_000u64),
        ("induction/threads/quis-50k", quis_fixture(50_000, 42), 50_000),
    ] {
        let mut group = c.benchmark_group(name);
        for &threads in &[1usize, 2, 4, 8] {
            let auditor =
                Auditor::new(AuditConfig { threads: threads.into(), ..AuditConfig::default() });
            group.throughput(Throughput::Elements(rows));
            group.sample_size(10);
            group.bench_with_input(BenchmarkId::from_parameter(threads), &auditor, |b, a| {
                b.iter(|| a.induce(&fixture.dirty).expect("fixture tables are auditable"))
            });
        }
        group.finish();
    }
}

/// The columnar **presorted** induction (PR 4's hot-path rewrite)
/// against the retained row-at-a-time reference implementation, single
/// threaded so the measured gap is purely the algorithmic/layout change
/// (per-node re-sorts and `Value` cell access vs one-off presort and
/// dense columns). Outputs are byte-identical — pinned by
/// `tests/columnar_equivalence.rs`; this measures the wall-clock side.
fn induction_presort(c: &mut Criterion) {
    for (name, fixture, rows) in [
        ("induction/presort/baseline-10k", baseline_fixture(10_000, 100, 42), 10_000u64),
        ("induction/presort/quis-50k", quis_fixture(50_000, 42), 50_000),
    ] {
        let auditor = Auditor::new(AuditConfig { threads: 1.into(), ..AuditConfig::default() });
        let mut group = c.benchmark_group(name);
        group.throughput(Throughput::Elements(rows));
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::from_parameter("reference"), &auditor, |b, a| {
            b.iter(|| a.induce_reference(&fixture.dirty).expect("fixture tables are auditable"))
        });
        group.bench_with_input(BenchmarkId::from_parameter("presorted"), &auditor, |b, a| {
            b.iter(|| a.induce(&fixture.dirty).expect("fixture tables are auditable"))
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    induction_baseline,
    induction_quis,
    induction_presort,
    induction_thread_scaling
);
criterion_main!(benches);
