//! Memory envelope of detection: `AuditEngine::detect` holds one batch
//! plus its findings, never anything per audited row. A live-bytes
//! counting global allocator (this file is its own test binary, so no
//! other suite sees it) tracks the heap bytes live on the test's own
//! thread and their high-water mark while a serial engine scans an
//! in-memory table that yields no findings, at 1× and 10× the rows.

use dq_core::{AuditEngine, Auditor};
use dq_table::{BatchSource, Schema, SchemaBuilder, Table, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    let live = LIVE.with(|n| {
        n.set(n.get() + delta);
        n.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// const-initialized thread-locals without destructors, so touching
// them neither allocates nor fails during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller's guarantees for `layout` and `new_size` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return the peak of the bytes live on this thread while
/// it ran, above the bytes live when it started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    ((PEAK.with(Cell::get) - start) as usize, out)
}

const BATCH_ROWS: usize = 512;
/// Batches of the 1× run.
const BATCHES: usize = 8;

/// `rows` rows over which `gbm` and `kbm` follow `brv` exactly: an
/// induced model finds nothing to flag.
fn consistent_table(schema: &Arc<Schema>, rows: usize) -> Table {
    let mut t = Table::new(schema.clone());
    for i in 0..rows {
        let code = (i % 3) as u32;
        t.push_row(&[Value::Nominal(code), Value::Nominal(code), Value::Nominal(code)]).unwrap();
    }
    t
}

#[test]
fn detect_peak_heap_does_not_grow_with_the_row_count() {
    let schema = SchemaBuilder::new()
        .nominal("brv", ["404", "501", "601"])
        .nominal("gbm", ["901", "911", "921"])
        .nominal("kbm", ["01", "02", "03"])
        .build()
        .unwrap();
    let model = Auditor::default().induce(&consistent_table(&schema, 3_000)).unwrap();
    assert!(model.n_rules() > 0, "the model must hold rules for the scan to evaluate");
    let engine = AuditEngine::new(model, schema.clone()).with_threads(1);

    let small = consistent_table(&schema, BATCHES * BATCH_ROWS);
    let large = consistent_table(&schema, 10 * BATCHES * BATCH_ROWS);
    let (batch_bytes, batch) = peak_bytes(|| small.batches(BATCH_ROWS).next_batch().unwrap());
    drop(batch);

    let (small_peak, small_report) = peak_bytes(|| engine.detect(small.batches(BATCH_ROWS)));
    let (large_peak, large_report) = peak_bytes(|| engine.detect(large.batches(BATCH_ROWS)));
    let (small_report, large_report) = (small_report.unwrap(), large_report.unwrap());
    assert!(small_report.findings.is_empty() && large_report.findings.is_empty());
    assert_eq!(large_report.n_rows(), 10 * small_report.n_rows());
    assert!(
        large_peak <= small_peak + batch_bytes,
        "peak heap of detect grew from {small_peak} B at {} rows to {large_peak} B at {} rows, \
         more than one {batch_bytes} B batch",
        small_report.n_rows(),
        large_report.n_rows(),
    );
}
