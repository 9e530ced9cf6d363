//! Allocation budget of the CSV codec: writing and reading (batched or
//! whole-table) must not allocate per cell or per row. A counting global allocator (this
//! file is its own test binary, so no other suite sees it) counts the
//! heap allocations made on the test's own thread while the codec runs.

use dq_table::{BatchSource, CsvChunkReader, CsvWriter, Schema, SchemaBuilder, Table, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialized thread-local without a destructor, so touching it
// neither allocates nor fails during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller's guarantees for `layout` and `new_size` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const ROWS: usize = 20_000;

/// 8 columns of every kind, with NULLs and out-of-label codes.
fn table() -> Table {
    let schema: Arc<Schema> = SchemaBuilder::new()
        .nominal("color", ["red", "green", "blue"])
        .nominal("shape", ["circle", "square"])
        .nominal_sized("grade", 12)
        .numeric("x", -1e4, 1e4)
        .integer("k", 0.0, 1000.0)
        .numeric("ratio", 0.0, 1.0)
        .date_ymd("built", (1990, 1, 1), (2010, 12, 31))
        .date_ymd("sold", (1990, 1, 1), (2010, 12, 31))
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    for i in 0..ROWS {
        let nominal = |m: usize| match i % 17 {
            0 => Value::Null,
            1 => Value::Nominal(40 + m as u32),
            _ => Value::Nominal((i * 7 % m) as u32),
        };
        let row = [
            nominal(3),
            nominal(2),
            nominal(12),
            Value::Number((i as f64 * 0.37) - 3000.0),
            if i % 11 == 0 { Value::Null } else { Value::Number((i % 1001) as f64) },
            Value::Number(1.0 / (i as f64 + 3.0)),
            Value::Date(7305 + (i % 7000) as i64),
            if i % 13 == 0 { Value::Null } else { Value::Date(7305 + (i * 3 % 7000) as i64) },
        ];
        t.push_row_lenient(&row).unwrap();
    }
    t
}

#[test]
fn the_csv_codec_does_not_allocate_per_row() {
    let t = table();

    let (written, ()) = allocations(|| {
        let mut w = CsvWriter::new(t.schema().clone(), std::io::sink()).unwrap();
        w.write_batch(&t).unwrap();
        w.finish().unwrap();
    });
    assert!(written < 100, "writing {ROWS} rows took {written} allocations");

    let mut csv = Vec::new();
    dq_table::write_csv(&t, &mut csv).unwrap();
    let (read, rows) = allocations(|| {
        let mut reader = CsvChunkReader::new(t.schema().clone(), csv.as_slice(), 4096).unwrap();
        let mut rows = 0;
        while let Some(batch) = reader.next_batch().unwrap() {
            rows += batch.n_rows();
        }
        rows
    });
    assert_eq!(rows, ROWS);
    assert!(read < 2_000, "reading {ROWS} rows took {read} allocations");

    // `read_csv` drains the same reader as one growing batch.
    let (loaded, table) = allocations(|| dq_table::read_csv(t.schema().clone(), csv.as_slice()));
    assert_eq!(table.unwrap().n_rows(), ROWS);
    assert!(loaded < 500, "read_csv of {ROWS} rows took {loaded} allocations");
}
