//! Out-of-core tables: a paged on-disk columnar backend.
//!
//! A [`PagedTable`] is a directory holding a relation as fixed-row-count
//! column **pages** plus a small text manifest:
//!
//! ```text
//! <dir>/
//!   manifest.dqpm      dq-paged v1, schema fingerprint, page_rows, n_rows
//!   page-0.dqp         rows [0, page_rows)         (binary, columnar)
//!   page-1.dqp         rows [page_rows, 2·page_rows)
//!   ...
//! ```
//!
//! Pages encode each column as its typed cells with explicit NULL
//! flags; numbers are stored as IEEE-754 bit patterns
//! ([`f64::to_bits`]), so a round trip through disk is *exact* — the
//! paged detect path is pinned byte-identical (CSV and f64 bits) to
//! the in-memory one. The spill is read sequentially, so the memory
//! envelope of every consumer is O(page): [`PagedWriter`] buffers at
//! most one page plus one incoming batch, and [`PagedTable::batches`]
//! decodes one page at a time.
//!
//! This is the third canonical [`BatchSource`] implementation (after
//! [`crate::TableBatches`] and [`crate::CsvChunkReader`]) and the
//! substrate for audits over relations larger than RAM.
//!
//! # Crash safety
//!
//! The manifest is the commit record: a directory without one is an
//! uncommitted (or torn) spill, and [`PagedTable::open`] rejects it
//! with a typed error naming the file. [`PagedWriter::finish`] makes
//! that protocol atomic — each page is fsynced as it is sealed, the
//! manifest is written to `manifest.dqpm.tmp`, fsynced, and renamed
//! into place, and the directory entry itself is fsynced — so a crash
//! (or `kill -9`) at *any* point leaves either a fully committed
//! directory or one that `open` cleanly refuses. `open` also verifies
//! every page file the manifest promises actually exists, and each
//! page decode checks magic and row counts, so a torn page surfaces as
//! a located [`TableError`], never as wrong rows.

use crate::batch::BatchSource;
use crate::column::Column;
use crate::error::TableError;
use crate::schema::Schema;
use crate::table::Table;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST: &str = "manifest.dqpm";
/// Staging name for the manifest during [`PagedWriter::finish`]; its
/// presence without a `manifest.dqpm` marks a spill torn mid-commit.
const MANIFEST_TMP: &str = "manifest.dqpm.tmp";
const MAGIC: &[u8; 4] = b"DQPG";

fn located(path: &Path, what: impl std::fmt::Display) -> TableError {
    TableError::Io(format!("paged table `{}`: {what}", path.display()))
}

/// Streams batches into a page directory; finish with
/// [`PagedWriter::finish`] to write the manifest and reopen the
/// directory as a [`PagedTable`].
#[derive(Debug)]
pub struct PagedWriter {
    dir: PathBuf,
    schema: Arc<Schema>,
    page_rows: usize,
    pending: Table,
    n_rows: usize,
    n_pages: usize,
}

impl PagedWriter {
    /// Create (or truncate into) `dir` for a relation over `schema`
    /// with `page_rows` rows per page (clamped to at least 1). A spill
    /// already committed there is removed — manifest, staged manifest
    /// and every page — before the first new page is written, so a
    /// crash mid-re-spill leaves a directory [`PagedTable::open`]
    /// refuses rather than a mix of old and new pages it would read.
    pub fn create(
        dir: impl Into<PathBuf>,
        schema: Arc<Schema>,
        page_rows: usize,
    ) -> Result<Self, TableError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| located(&dir, e))?;
        prune_from(&dir, 0)?;
        Ok(PagedWriter {
            pending: Table::new(schema.clone()),
            dir,
            schema,
            page_rows: page_rows.max(1),
            n_rows: 0,
            n_pages: 0,
        })
    }

    /// Reopen `dir` for appending after a crash, trusting exactly
    /// `committed_pages` pages — the count a checkpoint journal
    /// recorded at the last commit. Mid-stream, [`PagedWriter`] only
    /// ever writes *full* pages (the partial tail page is written by
    /// [`finish`](PagedWriter::finish) alone), so the committed prefix
    /// holds exactly `committed_pages * page_rows` rows.
    ///
    /// Every committed page must exist (each was fsynced before the
    /// journal committed it); the last one is decode-validated as a
    /// cheap tear check. Anything *beyond* the journal's watermark —
    /// orphan pages from the crashed incarnation, a stale manifest or
    /// staged temp — is pruned, so the resumed writer re-produces those
    /// bytes deterministically instead of trusting unjournaled state.
    pub fn resume(
        dir: impl Into<PathBuf>,
        schema: Arc<Schema>,
        page_rows: usize,
        committed_pages: usize,
    ) -> Result<Self, TableError> {
        let dir = dir.into();
        let page_rows = page_rows.max(1);
        for index in 0..committed_pages {
            let page = dir.join(format!("page-{index}.dqp"));
            if !page.is_file() {
                return Err(located(&page, "journaled page missing — cannot resume"));
            }
        }
        if committed_pages > 0 {
            let path = dir.join(format!("page-{}.dqp", committed_pages - 1));
            let file = std::fs::File::open(&path).map_err(|e| located(&path, e))?;
            // Mid-stream pages are always full.
            decode_page(&schema, file, page_rows)
                .map_err(|e| located(&path, format!("{e} — journaled page torn")))?;
        }
        prune_from(&dir, committed_pages)?;
        Ok(PagedWriter {
            pending: Table::new(schema.clone()),
            dir,
            schema,
            page_rows,
            n_rows: committed_pages * page_rows,
            n_pages: committed_pages,
        })
    }

    /// Pages sealed on disk so far (each fsynced). The watermark a
    /// checkpoint journal records: on-disk rows are exactly
    /// `n_pages() * page_rows` at any point before
    /// [`finish`](PagedWriter::finish).
    pub fn n_pages(&self) -> usize {
        self.n_pages
    }

    /// Rows still buffered in memory, not yet part of any sealed page.
    pub fn pending_rows(&self) -> usize {
        self.pending.n_rows()
    }

    /// Append a batch (same schema as the writer's, by canonical
    /// fingerprint). Full pages spill to disk immediately; memory
    /// stays O(page + batch).
    pub fn append_batch(&mut self, batch: &Table) -> Result<(), TableError> {
        self.pending.append_rows(batch)?;
        self.n_rows += batch.n_rows();
        while self.pending.n_rows() >= self.page_rows {
            let page = self.pending.slice_rows(0, self.page_rows)?;
            let rest = self.pending.slice_rows(self.page_rows, self.pending.n_rows())?;
            self.write_page(&page)?;
            self.pending = rest;
        }
        Ok(())
    }

    /// Drain `source` to disk, then [`finish`](PagedWriter::finish) —
    /// the one-call spill of any [`BatchSource`].
    pub fn spill(mut self, mut source: impl BatchSource) -> Result<PagedTable, TableError> {
        while let Some(batch) = source.next_batch()? {
            self.append_batch(&batch)?;
        }
        self.finish()
    }

    /// Flush the final partial page, commit the manifest, and reopen
    /// the directory for reading.
    ///
    /// The commit is crash-safe: the manifest is staged to
    /// `manifest.dqpm.tmp`, fsynced, atomically renamed into place,
    /// and the directory entry is fsynced. A crash anywhere before the
    /// rename leaves no manifest (or only the staged temp file), and
    /// [`PagedTable::open`] rejects such a directory with a typed
    /// error instead of reading a partial relation.
    pub fn finish(mut self) -> Result<PagedTable, TableError> {
        if !self.pending.is_empty() {
            let last = std::mem::replace(&mut self.pending, Table::new(self.schema.clone()));
            self.write_page(&last)?;
        }
        let path = self.dir.join(MANIFEST);
        let tmp = self.dir.join(MANIFEST_TMP);
        let text = format!(
            "dq-paged v1\nfingerprint {:016x}\npage_rows {}\nn_rows {}\nn_pages {}\n",
            self.schema.fingerprint(),
            self.page_rows,
            self.n_rows,
            self.n_pages
        );
        let mut staged = std::fs::File::create(&tmp).map_err(|e| located(&tmp, e))?;
        staged.write_all(text.as_bytes()).map_err(|e| located(&tmp, e))?;
        staged.sync_all().map_err(|e| located(&tmp, e))?;
        drop(staged);
        std::fs::rename(&tmp, &path).map_err(|e| located(&path, e))?;
        sync_dir(&self.dir)?;
        PagedTable::open(self.dir, self.schema)
    }

    fn write_page(&mut self, page: &Table) -> Result<(), TableError> {
        let path = self.dir.join(format!("page-{}.dqp", self.n_pages));
        let file = std::fs::File::create(&path).map_err(|e| located(&path, e))?;
        let mut w = BufWriter::new(file);
        encode_page(page, &mut w).map_err(|e| located(&path, e))?;
        w.flush().map_err(|e| located(&path, e))?;
        // Durable before the manifest can commit it.
        w.get_ref().sync_all().map_err(|e| located(&path, e))?;
        self.n_pages += 1;
        Ok(())
    }
}

/// Remove everything of a spill in `dir` past its first `keep` pages:
/// the manifest, the staged manifest, and pages `keep..` — leftovers a
/// crashed (or an earlier) incarnation wrote that no journal vouches
/// for. The directory is fsynced, so the removals are ordered before
/// any page written next.
fn prune_from(dir: &Path, keep: usize) -> Result<(), TableError> {
    for name in [MANIFEST, MANIFEST_TMP] {
        let stale = dir.join(name);
        if stale.exists() {
            std::fs::remove_file(&stale).map_err(|e| located(&stale, e))?;
        }
    }
    for entry in std::fs::read_dir(dir).map_err(|e| located(dir, e))? {
        let path = entry.map_err(|e| located(dir, e))?.path();
        let index = path.file_name().and_then(|name| name.to_str()).and_then(|name| {
            name.strip_prefix("page-")?.strip_suffix(".dqp")?.parse::<usize>().ok()
        });
        if index.is_some_and(|index| index >= keep) {
            std::fs::remove_file(&path).map_err(|e| located(&path, e))?;
        }
    }
    sync_dir(dir)
}

/// Fsync a directory so a just-renamed entry survives power loss.
/// Directory handles only support this on unix; elsewhere the rename
/// alone is the best available ordering.
fn sync_dir(dir: &Path) -> Result<(), TableError> {
    #[cfg(unix)]
    {
        let handle = std::fs::File::open(dir).map_err(|e| located(dir, e))?;
        handle.sync_all().map_err(|e| located(dir, e))?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

fn encode_page<W: Write>(page: &Table, w: &mut W) -> std::io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(page.n_rows() as u64).to_le_bytes())?;
    for c in 0..page.n_cols() {
        match page.column(c) {
            Column::Nominal(cells) => {
                w.write_all(&[0u8])?;
                for cell in cells {
                    match cell {
                        None => w.write_all(&[0u8])?,
                        Some(code) => {
                            w.write_all(&[1u8])?;
                            w.write_all(&code.to_le_bytes())?;
                        }
                    }
                }
            }
            Column::Number(cells) => {
                w.write_all(&[1u8])?;
                for cell in cells {
                    match cell {
                        None => w.write_all(&[0u8])?,
                        Some(x) => {
                            w.write_all(&[1u8])?;
                            // Bit pattern, not text: exact round trip.
                            w.write_all(&x.to_bits().to_le_bytes())?;
                        }
                    }
                }
            }
            Column::Date(cells) => {
                w.write_all(&[2u8])?;
                for cell in cells {
                    match cell {
                        None => w.write_all(&[0u8])?,
                        Some(d) => {
                            w.write_all(&[1u8])?;
                            w.write_all(&d.to_le_bytes())?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Decode a page that the manifest (or the journal) says holds
/// `n_rows` rows. The header's row count must say the same, and the
/// file must be long enough for that many cells (one NULL flag byte
/// each at least), both checked before any column is allocated: a
/// corrupt count is an error, never an allocation of its size.
fn decode_page(schema: &Arc<Schema>, file: std::fs::File, n_rows: usize) -> Result<Table, String> {
    let file_len = file.metadata().map_err(|e| e.to_string())?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(|e| e.to_string())?;
    if &magic != MAGIC {
        return Err("bad page magic".into());
    }
    let mut len = [0u8; 8];
    r.read_exact(&mut len).map_err(|e| e.to_string())?;
    let declared = u64::from_le_bytes(len);
    if declared != n_rows as u64 {
        return Err(format!("page header declares {declared} rows, expected {n_rows}"));
    }
    // Magic and count, then per column a kind tag and a flag per cell.
    let per_column = (n_rows as u64).saturating_add(1);
    let min_len = (schema.len() as u64).saturating_mul(per_column).saturating_add(12);
    if file_len < min_len {
        return Err(format!("page of {file_len} bytes is too short for {n_rows} rows"));
    }
    let mut columns = Vec::with_capacity(schema.len());
    for attr in schema.attributes() {
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind).map_err(|e| e.to_string())?;
        let expected = match Column::for_type(&attr.ty) {
            Column::Nominal(_) => 0u8,
            Column::Number(_) => 1,
            Column::Date(_) => 2,
        };
        if kind[0] != expected {
            return Err(format!(
                "column `{}` stored with kind tag {}, schema expects {expected}",
                attr.name, kind[0]
            ));
        }
        let mut flag = [0u8; 1];
        let column = match kind[0] {
            0 => {
                let mut cells = Vec::with_capacity(n_rows);
                let mut buf = [0u8; 4];
                for _ in 0..n_rows {
                    r.read_exact(&mut flag).map_err(|e| e.to_string())?;
                    cells.push(if flag[0] == 0 {
                        None
                    } else {
                        r.read_exact(&mut buf).map_err(|e| e.to_string())?;
                        Some(u32::from_le_bytes(buf))
                    });
                }
                Column::Nominal(cells)
            }
            1 => {
                let mut cells = Vec::with_capacity(n_rows);
                let mut buf = [0u8; 8];
                for _ in 0..n_rows {
                    r.read_exact(&mut flag).map_err(|e| e.to_string())?;
                    cells.push(if flag[0] == 0 {
                        None
                    } else {
                        r.read_exact(&mut buf).map_err(|e| e.to_string())?;
                        Some(f64::from_bits(u64::from_le_bytes(buf)))
                    });
                }
                Column::Number(cells)
            }
            _ => {
                let mut cells = Vec::with_capacity(n_rows);
                let mut buf = [0u8; 8];
                for _ in 0..n_rows {
                    r.read_exact(&mut flag).map_err(|e| e.to_string())?;
                    cells.push(if flag[0] == 0 {
                        None
                    } else {
                        r.read_exact(&mut buf).map_err(|e| e.to_string())?;
                        Some(i64::from_le_bytes(buf))
                    });
                }
                Column::Date(cells)
            }
        };
        columns.push(column);
    }
    Table::from_parts(schema.clone(), columns, n_rows).map_err(|e| e.to_string())
}

/// A relation resident on disk as column pages, read back in row
/// order one page at a time through [`PagedTable::batches`].
#[derive(Debug)]
pub struct PagedTable {
    dir: PathBuf,
    schema: Arc<Schema>,
    page_rows: usize,
    n_rows: usize,
    n_pages: usize,
}

impl PagedTable {
    /// Open a page directory written by [`PagedWriter`]; the manifest's
    /// schema fingerprint must match `schema`'s.
    ///
    /// A directory whose writer never reached the manifest commit —
    /// dropped mid-append, killed mid-spill, or crashed between
    /// staging and renaming the manifest — is rejected with a typed
    /// [`TableError`] naming the missing file (and the leftover
    /// `manifest.dqpm.tmp`, when one marks a torn commit). The page
    /// files the manifest promises are verified to exist up front.
    pub fn open(dir: impl Into<PathBuf>, schema: Arc<Schema>) -> Result<Self, TableError> {
        let dir = dir.into();
        let path = dir.join(MANIFEST);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            let tmp = dir.join(MANIFEST_TMP);
            if tmp.exists() {
                located(
                    &path,
                    format!(
                        "{e} (staged `{}` present — the writer crashed mid-commit; \
                         the spill is incomplete)",
                        tmp.display()
                    ),
                )
            } else {
                located(&path, e)
            }
        })?;
        let mut lines = text.lines();
        if lines.next() != Some("dq-paged v1") {
            return Err(located(&path, "not a dq-paged v1 manifest"));
        }
        let mut field = |name: &str| -> Result<String, TableError> {
            let line = lines.next().unwrap_or("");
            line.strip_prefix(name)
                .and_then(|v| v.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| located(&path, format!("manifest line `{line}` is not `{name} …`")))
        };
        let fingerprint = u64::from_str_radix(&field("fingerprint")?, 16)
            .map_err(|e| located(&path, format!("bad fingerprint: {e}")))?;
        let parse = |v: String| v.parse::<usize>().map_err(|e| located(&path, e));
        let page_rows = parse(field("page_rows")?)?;
        let n_rows = parse(field("n_rows")?)?;
        let n_pages = parse(field("n_pages")?)?;
        if fingerprint != schema.fingerprint() {
            return Err(TableError::SchemaFingerprint {
                expected: schema.fingerprint(),
                got: fingerprint,
            });
        }
        if page_rows == 0 || n_pages != n_rows.div_ceil(page_rows) {
            return Err(located(&path, "inconsistent page geometry"));
        }
        // Every page the manifest commits to must be present; a torn
        // directory is rejected here rather than mid-scan.
        for index in 0..n_pages {
            let page = dir.join(format!("page-{index}.dqp"));
            if !page.is_file() {
                return Err(located(&page, "page file missing from committed manifest"));
            }
        }
        Ok(PagedTable { dir, schema, page_rows, n_rows, n_pages })
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Total rows across all pages.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Rows per page (the last page may be shorter).
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Number of pages on disk.
    pub fn n_pages(&self) -> usize {
        self.n_pages
    }

    /// Decode page `index` from disk.
    fn read_page(&self, index: usize) -> Result<Table, TableError> {
        let path = self.dir.join(format!("page-{index}.dqp"));
        let file = std::fs::File::open(&path).map_err(|e| located(&path, e))?;
        let n_rows = if index + 1 == self.n_pages && self.n_rows % self.page_rows != 0 {
            self.n_rows % self.page_rows
        } else {
            self.page_rows
        };
        decode_page(&self.schema, file, n_rows).map_err(|e| located(&path, e))
    }

    /// Scan the pages in row order as a [`BatchSource`] (one decoded
    /// page in memory at a time).
    pub fn batches(&self) -> PagedBatches<'_> {
        self.batches_from(0)
    }

    /// Scan starting at page `first_page` — the seek a resumed audit
    /// uses to skip pages a previous incarnation already processed.
    /// The skipped rows count as emitted, so global row offsets match
    /// an uninterrupted scan.
    pub fn batches_from(&self, first_page: usize) -> PagedBatches<'_> {
        PagedBatches {
            table: self,
            next_page: first_page,
            rows_emitted: (first_page * self.page_rows).min(self.n_rows),
            done: false,
        }
    }
}

/// The sequential [`BatchSource`] view of a [`PagedTable`]: one page
/// per batch, in row order.
#[derive(Debug)]
pub struct PagedBatches<'a> {
    table: &'a PagedTable,
    next_page: usize,
    rows_emitted: usize,
    done: bool,
}

impl BatchSource for PagedBatches<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.table.schema
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        if self.done || self.next_page >= self.table.n_pages {
            self.done = true;
            return Ok(None);
        }
        match self.table.read_page(self.next_page) {
            Ok(page) => {
                self.next_page += 1;
                self.rows_emitted += page.n_rows();
                Ok(Some(page))
            }
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }

    fn rows_emitted(&self) -> usize {
        self.rows_emitted
    }

    fn row_count_hint(&self) -> Option<usize> {
        Some(self.table.n_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::value::Value;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dq-paged-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn fixture(rows: usize) -> Table {
        let schema = SchemaBuilder::new()
            .nominal("c", ["x", "y", "z"])
            .numeric("n", 0.0, 1000.0)
            .date_ymd("d", (2000, 1, 1), (2020, 1, 1))
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..rows {
            // Mix NULLs, an out-of-label code, and a bit-pattern-fussy
            // float so exactness is actually exercised.
            let c = match i % 4 {
                0 => Value::Null,
                3 => Value::Nominal(9),
                k => Value::Nominal(k as u32),
            };
            let n = if i % 5 == 0 { Value::Null } else { Value::Number(i as f64 / 7.0) };
            let d = if i % 3 == 0 { Value::Null } else { Value::Date(10957 + i as i64) };
            t.push_row_lenient(&[c, n, d]).unwrap();
        }
        t
    }

    #[test]
    fn round_trips_exactly_through_pages() {
        let t = fixture(23);
        for page_rows in [1, 7, 23, 100] {
            let d = dir(&format!("rt{page_rows}"));
            let paged = PagedWriter::create(&d, t.schema().clone(), page_rows)
                .unwrap()
                .spill(t.batches(5))
                .unwrap();
            assert_eq!(paged.n_rows(), 23);
            assert_eq!(paged.n_pages(), 23usize.div_ceil(page_rows));
            // Sequential scan concatenates to the exact relation.
            let mut src = paged.batches();
            let mut row = 0;
            while let Some(batch) = src.next_batch().unwrap() {
                for r in 0..batch.n_rows() {
                    assert_eq!(batch.row(r), t.row(row), "page_rows={page_rows}, row {row}");
                    row += 1;
                }
            }
            assert_eq!(row, 23);
            std::fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn open_validates_fingerprint_and_geometry() {
        let t = fixture(10);
        let d = dir("val");
        PagedWriter::create(&d, t.schema().clone(), 4).unwrap().spill(t.batches(3)).unwrap();
        // Wrong schema: typed fingerprint error.
        let other = SchemaBuilder::new().nominal("only", ["a"]).build().unwrap();
        assert!(matches!(PagedTable::open(&d, other), Err(TableError::SchemaFingerprint { .. })));
        // Torn manifest.
        std::fs::write(d.join(MANIFEST), "nonsense\n").unwrap();
        assert!(PagedTable::open(&d, t.schema().clone()).is_err());
        // Missing directory.
        std::fs::remove_dir_all(&d).unwrap();
        assert!(PagedTable::open(&d, t.schema().clone()).is_err());
    }

    #[test]
    fn writer_dropped_mid_append_leaves_a_rejected_directory() {
        let t = fixture(30);
        let d = dir("crash");
        {
            let mut w = PagedWriter::create(&d, t.schema().clone(), 4).unwrap();
            // Several pages reach disk, then the "process dies" before
            // finish(): the drop writes no manifest.
            w.append_batch(&t.slice_rows(0, 20).unwrap()).unwrap();
        }
        assert!(d.join("page-0.dqp").is_file(), "pages did spill");
        let err = PagedTable::open(&d, t.schema().clone()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(MANIFEST), "must name the missing commit record: {msg}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn a_killed_re_spill_over_a_committed_spill_is_rejected() {
        let t = fixture(30);
        let d = dir("respill");
        PagedWriter::create(&d, t.schema().clone(), 4).unwrap().spill(t.batches(7)).unwrap();
        {
            // Re-spill into the same directory; one full page reaches
            // disk, then the "process dies" before finish().
            let mut w = PagedWriter::create(&d, t.schema().clone(), 4).unwrap();
            w.append_batch(&t.slice_rows(10, 14).unwrap()).unwrap();
            assert_eq!(w.n_pages(), 1);
        }
        let err = PagedTable::open(&d, t.schema().clone()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(MANIFEST), "the old manifest must not vouch for new pages: {msg}");
        assert!(!d.join("page-1.dqp").exists(), "pages of the old spill are pruned");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn torn_manifest_rename_is_rejected_with_a_crash_hint() {
        let t = fixture(10);
        let d = dir("torn");
        PagedWriter::create(&d, t.schema().clone(), 4).unwrap().spill(t.batches(3)).unwrap();
        // Simulate a crash between staging and renaming the manifest:
        // the commit record exists only under its temp name.
        std::fs::rename(d.join(MANIFEST), d.join(MANIFEST_TMP)).unwrap();
        let err = PagedTable::open(&d, t.schema().clone()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(MANIFEST_TMP) && msg.contains("mid-commit"), "{msg}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn open_rejects_a_manifest_promising_absent_pages() {
        let t = fixture(10);
        let d = dir("absent");
        PagedWriter::create(&d, t.schema().clone(), 4).unwrap().spill(t.batches(3)).unwrap();
        std::fs::remove_file(d.join("page-2.dqp")).unwrap();
        let err = PagedTable::open(&d, t.schema().clone()).unwrap_err();
        assert!(err.to_string().contains("page-2.dqp"), "{err}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn truncated_page_file_is_a_located_error_not_wrong_rows() {
        let t = fixture(10);
        let d = dir("trunc");
        let paged =
            PagedWriter::create(&d, t.schema().clone(), 4).unwrap().spill(t.batches(3)).unwrap();
        // Tear the middle page to a prefix of itself.
        let page = d.join("page-1.dqp");
        let bytes = std::fs::read(&page).unwrap();
        std::fs::write(&page, &bytes[..bytes.len() / 2]).unwrap();
        let mut src = paged.batches();
        assert_eq!(src.next_batch().unwrap().unwrap().n_rows(), 4);
        let err = src.next_batch().unwrap_err();
        assert!(err.to_string().contains("page-1.dqp"), "{err}");
        assert!(matches!(src.next_batch(), Ok(None)), "fused after the tear");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn a_corrupt_page_row_count_is_a_located_error_not_an_allocation() {
        let t = fixture(10);
        let d = dir("count");
        let paged =
            PagedWriter::create(&d, t.schema().clone(), 4).unwrap().spill(t.batches(3)).unwrap();
        let page = d.join("page-0.dqp");
        let bytes = std::fs::read(&page).unwrap();
        for declared in [1u64 << 61, 5] {
            let mut corrupt = bytes.clone();
            corrupt[4..12].copy_from_slice(&declared.to_le_bytes());
            std::fs::write(&page, &corrupt).unwrap();
            let err = paged.batches().next_batch().unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, TableError::Io(_)), "{err:?}");
            assert!(msg.contains("page-0.dqp"), "{msg}");
            assert!(msg.contains(&format!("header declares {declared} rows, expected 4")), "{msg}");
            // Resuming trusts the journaled pages no further.
            let err = PagedWriter::resume(&d, t.schema().clone(), 4, 1).unwrap_err();
            assert!(err.to_string().contains("header declares"), "{err}");
        }

        // A manifest promising more rows than the pages can hold is
        // refused the same way before the columns are reserved.
        std::fs::write(&page, &bytes).unwrap();
        let manifest = std::fs::read_to_string(d.join(MANIFEST)).unwrap();
        let huge = 1usize << 61;
        let manifest = manifest
            .replace("page_rows 4", &format!("page_rows {huge}"))
            .replace("n_rows 10", &format!("n_rows {huge}"))
            .replace("n_pages 3", "n_pages 1");
        std::fs::write(d.join(MANIFEST), manifest).unwrap();
        let mut header = bytes.clone();
        header[4..12].copy_from_slice(&(huge as u64).to_le_bytes());
        std::fs::write(&page, &header).unwrap();
        let paged = PagedTable::open(&d, t.schema().clone()).unwrap();
        let err = paged.batches().next_batch().unwrap_err();
        assert!(err.to_string().contains("too short"), "{err}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn resume_reproduces_an_uninterrupted_spill_byte_for_byte() {
        let t = fixture(30);
        // Reference: uninterrupted spill.
        let ref_dir = dir("resume-ref");
        PagedWriter::create(&ref_dir, t.schema().clone(), 4).unwrap().spill(t.batches(7)).unwrap();

        // Crashed incarnation: 17 rows appended → 4 full pages sealed,
        // one row pending (lost with the process), plus an orphan torn
        // page file beyond the journaled watermark.
        let d = dir("resume");
        {
            let mut w = PagedWriter::create(&d, t.schema().clone(), 4).unwrap();
            w.append_batch(&t.slice_rows(0, 17).unwrap()).unwrap();
            assert_eq!(w.n_pages(), 4);
            assert_eq!(w.pending_rows(), 1);
        }
        std::fs::write(d.join("page-4.dqp"), b"torn orphan").unwrap();

        // Resume trusting the journal's 4 pages (= 16 rows); the tail
        // rows [16, 30) are re-appended as a fresh incarnation would.
        let mut w = PagedWriter::resume(&d, t.schema().clone(), 4, 4).unwrap();
        assert!(!d.join("page-4.dqp").exists(), "orphan pruned");
        w.append_batch(&t.slice_rows(16, 30).unwrap()).unwrap();
        w.finish().unwrap();

        for name in ["manifest.dqpm", "page-0.dqp", "page-3.dqp", "page-4.dqp", "page-7.dqp"] {
            assert_eq!(
                std::fs::read(ref_dir.join(name)).unwrap(),
                std::fs::read(d.join(name)).unwrap(),
                "{name} must be byte-identical to the uninterrupted run"
            );
        }
        std::fs::remove_dir_all(&ref_dir).unwrap();
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn resume_refuses_missing_or_torn_journaled_pages() {
        let t = fixture(20);
        let d = dir("resume-bad");
        {
            let mut w = PagedWriter::create(&d, t.schema().clone(), 4).unwrap();
            w.append_batch(&t.slice_rows(0, 16).unwrap()).unwrap();
        }
        // Journal promises more pages than exist.
        let err = PagedWriter::resume(&d, t.schema().clone(), 4, 5).unwrap_err();
        assert!(err.to_string().contains("page-4.dqp"), "{err}");
        // Tear the last journaled page.
        let page = d.join("page-3.dqp");
        let bytes = std::fs::read(&page).unwrap();
        std::fs::write(&page, &bytes[..bytes.len() / 2]).unwrap();
        let err = PagedWriter::resume(&d, t.schema().clone(), 4, 4).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn batches_from_seeks_with_consistent_offsets() {
        let t = fixture(23);
        let d = dir("seek");
        let paged =
            PagedWriter::create(&d, t.schema().clone(), 4).unwrap().spill(t.batches(6)).unwrap();
        let mut src = paged.batches_from(3);
        assert_eq!(src.rows_emitted(), 12);
        let mut row = 12;
        while let Some(batch) = src.next_batch().unwrap() {
            for r in 0..batch.n_rows() {
                assert_eq!(batch.row(r), t.row(row), "row {row}");
                row += 1;
            }
        }
        assert_eq!(row, 23);
        assert_eq!(src.rows_emitted(), 23);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn missing_page_file_is_a_located_error() {
        let t = fixture(10);
        let d = dir("miss");
        let paged =
            PagedWriter::create(&d, t.schema().clone(), 4).unwrap().spill(t.batches(4)).unwrap();
        std::fs::remove_file(d.join("page-1.dqp")).unwrap();
        let mut src = paged.batches();
        assert!(src.next_batch().unwrap().is_some());
        let err = src.next_batch().unwrap_err();
        assert!(err.to_string().contains("page-1.dqp"), "{err}");
        // Fused after the error.
        assert!(matches!(src.next_batch(), Ok(None)));
        std::fs::remove_dir_all(&d).unwrap();
    }
}
