//! The CSV codec for tables: one byte-level writer and one reader,
//! neither of which allocates per cell or per row.
//!
//! The format is deliberately simple (no quoting of separators inside
//! labels): one header row with attribute names, then one row per
//! record. NULL cells are written as the empty string, nominal cells as
//! their labels, numbers in `f64`'s shortest round-trip `Display` form,
//! dates as ISO `YYYY-MM-DD` ([`crate::date::write_iso`]). This is
//! enough to move generated benchmark tables and audit findings in and
//! out of the workspace; it is not a general-purpose CSV engine.
//!
//! **Dirty data is representable**: a nominal cell holding a code
//! outside the label list (the switcher polluter produces those)
//! is written as `#<code>` and read back verbatim, and reading checks
//! cell *kinds* only (like [`Table::push_row_lenient`]), so any
//! workspace-generated table — polluted or clean — round-trips
//! exactly. Labels starting with `#` are reserved for this escape.
//!
//! **Writing** ([`CsvWriter`], behind [`write_csv`]) resolves each
//! column of a batch to its typed vector once ([`CsvRows`]), then
//! renders every row into one reused buffer: label bytes come straight
//! from the schema, numbers and dates are formatted in place, and the
//! finished row goes to the `BufWriter` in a single `write_all`.
//! [`CsvRows::render_all`] renders a batch through the same row
//! renderer into memory and records where each row ends, so a caller
//! can reuse a row's bytes (the untouched rows of a polluted copy).
//!
//! **Reading** ([`CsvChunkReader`]) works on bytes. Each line is found
//! by a newline search, eight bytes at a time, straight in the
//! [`BufRead`] buffer and parsed in place; only a line that straddles
//! two buffer fills is copied, into one reused byte buffer. A line is
//! split on the byte `,` in a single pass with no intermediate vector.
//! Each batch's columns are resolved to their typed vectors once, and
//! every cell is parsed straight into its column:
//!
//! * a label maps to its code through a per-column open-addressing
//!   table built once from the schema (`LabelTable`), keyed by the
//!   label's first 8 bytes packed into a `u64` plus its length, with a
//!   full-byte compare only for labels longer than 8 bytes (whose
//!   further bytes are hashed too);
//! * an unsigned integer of at most 15 digits is accumulated exactly
//!   (below 2^53, so the conversion to `f64` is exact); any other
//!   number goes through `str::parse::<f64>`. A number that parses to
//!   NaN or ±inf is a cell error, so every read number is finite;
//! * canonical dates are decoded byte by byte
//!   ([`parse_iso`](crate::date::parse_iso)).
//!
//! A successful cell never holds invalid UTF-8 (labels, digits and
//! dates are UTF-8), so lines are not validated up front: a line that
//! fails at any cell is checked for UTF-8 first, and invalid input is
//! the fatal [`TableError::Io`] of a broken stream, even in quarantine
//! mode. The header, and lines skipped by
//! [`CsvChunkReader::skip_data_rows`], are validated as they are read.
//! A row that fails part-way is rolled back by truncating every column
//! to the batch's row count, so a quarantined row never leaves half a
//! row behind.
//!
//! * [`CsvChunkReader`] reads the stream as bounded-size [`Table`]
//!   batches through [`BatchSource`], so a file (much) larger than RAM
//!   can be scanned at O(chunk) memory — the substrate of `dq_core`'s
//!   streaming deviation detection;
//! * [`read_csv`] drains the same reader as one unbounded batch, the
//!   whole stream as a single [`Table`].
//!
//! Memory stays O(chunk) whatever the input: no line, terminator
//! included, may exceed [`MAX_LINE_BYTES`]. A longer line is a fatal
//! [`TableError::Csv`] naming its line number — even in quarantine
//! mode, since its raw text cannot be captured — and the reader fuses.
//!
//! All cell-level errors are reported as [`TableError::CsvCell`] with
//! the 1-based physical line number (the header is line 1) and the
//! column name, so the bad cell can be found in a million-row file.

use crate::batch::BatchSource;
use crate::column::Column;
use crate::date::{parse_iso_bytes, write_iso};
use crate::error::TableError;
use crate::schema::{AttrType, Attribute, Schema};
use crate::table::Table;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::sync::Arc;

/// The longest line, terminator included, a reader accepts (1 MiB).
/// Lines are read through a window of this size, so a stream without
/// newlines cannot grow the reader's buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The most rows a batch's columns reserve up front. A larger
/// `chunk_rows` (or [`read_csv`]'s unbounded batch) grows the columns
/// as rows arrive, so the reservation never follows a caller's bound.
const BATCH_RESERVE_ROWS: usize = 4096;

/// Write `table` as CSV.
pub fn write_csv<W: Write>(table: &Table, out: W) -> Result<(), TableError> {
    let mut w = CsvWriter::new(table.schema().clone(), out)?;
    w.write_batch(table)?;
    w.finish()
}

/// A streaming CSV writer: the header goes out at construction, then
/// any number of batches append through [`CsvWriter::write_batch`].
/// Writing a whole in-memory table with [`write_csv`] and streaming
/// the same rows batch-by-batch produce byte-identical files — the
/// equality the O(chunk)-memory `dq generate` path is pinned against.
#[derive(Debug)]
pub struct CsvWriter<W: Write> {
    schema: Arc<Schema>,
    w: BufWriter<W>,
    /// The row being rendered, reused across rows.
    row: String,
}

impl<W: Write> CsvWriter<W> {
    /// Open a writer over `out` and emit the header row.
    pub fn new(schema: Arc<Schema>, out: W) -> Result<Self, TableError> {
        let mut w = CsvWriter::append(schema, out);
        let names: Vec<&str> = w.schema.attributes().iter().map(|a| a.name.as_str()).collect();
        let header = names.join(",");
        writeln!(w.w, "{header}")?;
        Ok(w)
    }

    /// Open a writer over `out` **without** emitting a header — for
    /// appending to a stream whose header (and a prefix of rows)
    /// already exists, e.g. a checkpointed job resuming a CSV output
    /// truncated to its last committed watermark.
    pub fn append(schema: Arc<Schema>, out: W) -> Self {
        CsvWriter { schema, w: BufWriter::new(out), row: String::new() }
    }

    /// Flush buffered rows to the underlying writer without closing.
    /// After this returns, every row written so far has been handed to
    /// `W` — the barrier a checkpointing job needs before it records a
    /// byte watermark.
    pub fn flush(&mut self) -> Result<(), TableError> {
        self.w.flush()?;
        Ok(())
    }

    /// The underlying writer (e.g. to read a byte counter after
    /// [`CsvWriter::flush`]).
    pub fn get_ref(&self) -> &W {
        self.w.get_ref()
    }

    /// Append every row of `batch` (whose schema must match the
    /// writer's).
    pub fn write_batch(&mut self, batch: &Table) -> Result<(), TableError> {
        if !Arc::ptr_eq(&self.schema, batch.schema()) && *self.schema != **batch.schema() {
            return Err(TableError::SchemaMismatch);
        }
        let rows = CsvRows::new(batch);
        for r in 0..batch.n_rows() {
            self.row.clear();
            rows.render(r, &mut self.row);
            self.w.write_all(self.row.as_bytes())?;
        }
        Ok(())
    }

    /// Flush and close the writer.
    pub fn finish(mut self) -> Result<(), TableError> {
        self.w.flush()?;
        Ok(())
    }
}

/// A batch resolved for rendering: each column to its typed cells
/// once (and, for nominal columns, to the labels its codes index). The
/// one CSV row renderer: [`CsvWriter::write_batch`] and
/// [`CsvRows::render_all`] both render through [`CsvRows::render`], so
/// a row renders to the same bytes whichever writes it.
pub struct CsvRows<'a> {
    columns: Vec<Cells<'a>>,
    n_rows: usize,
}

impl<'a> CsvRows<'a> {
    /// Resolve the columns of `batch`.
    pub fn new(batch: &'a Table) -> Self {
        let columns = (0..batch.n_cols())
            .map(|c| match (batch.column(c), &batch.schema().attr(c).ty) {
                (Column::Nominal(codes), AttrType::Nominal { labels }) => {
                    Cells::Nominal(codes, labels)
                }
                (Column::Nominal(codes), _) => Cells::Nominal(codes, &[]),
                (Column::Number(xs), _) => Cells::Number(xs),
                (Column::Date(days), _) => Cells::Date(days),
            })
            .collect();
        CsvRows { columns, n_rows: batch.n_rows() }
    }

    /// Append row `row` to `out` as one CSV line, newline included.
    pub fn render(&self, row: usize, out: &mut String) {
        for (c, cells) in self.columns.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            cells.render(row, out).expect("writing to a String cannot fail");
        }
        out.push('\n');
    }

    /// Append every row to `out`, and push the offset in `out` where
    /// each row's line ends onto `row_ends` — so a caller can copy a
    /// single row's bytes back out without rendering it again.
    pub fn render_all(&self, out: &mut String, row_ends: &mut Vec<usize>) {
        for r in 0..self.n_rows {
            self.render(r, out);
            row_ends.push(out.len());
        }
    }
}

/// One column of a batch, resolved once per batch to its typed cells
/// (and, for nominal columns, the labels its codes index).
enum Cells<'a> {
    Nominal(&'a [Option<u32>], &'a [String]),
    Number(&'a [Option<f64>]),
    Date(&'a [Option<i64>]),
}

impl Cells<'_> {
    /// Append the text of cell `row` to `out`; NULL appends nothing.
    fn render(&self, row: usize, out: &mut String) -> fmt::Result {
        match *self {
            Cells::Nominal(codes, labels) => match codes[row] {
                None => Ok(()),
                Some(code) => match labels.get(code as usize) {
                    Some(label) => out.write_str(label),
                    // Out-of-label codes escape as `#<code>` so polluted
                    // tables round-trip.
                    None => write!(out, "#{code}"),
                },
            },
            Cells::Number(xs) => xs[row].map_or(Ok(()), |x| write!(out, "{x}")),
            Cells::Date(days) => days[row].map_or(Ok(()), |d| write_iso(out, d)),
        }
    }
}

/// Read a CSV stream into a table over the given schema.
///
/// The header must list exactly the schema's attribute names in order.
/// Empty cells become NULL. Nominal cells are matched against the
/// label list (with the `#<code>` escape for out-of-label codes);
/// unknown labels are an error.
pub fn read_csv<R: Read>(schema: Arc<Schema>, input: R) -> Result<Table, TableError> {
    let mut reader = CsvChunkReader::new(schema.clone(), BufReader::new(input), usize::MAX)?;
    Ok(reader.next_batch()?.unwrap_or_else(|| Table::new(schema)))
}

/// A malformed CSV row captured by a quarantining reader instead of
/// aborting the stream (see [`CsvChunkReader::with_quarantine`]): the
/// dead-letter record a degraded audit writes out so every skipped row
/// stays attributable.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedRow {
    /// 1-based physical line number in the stream (header is line 1).
    pub line: usize,
    /// The typed error that made the row unparseable.
    pub error: TableError,
    /// The raw line text (line terminator stripped).
    pub raw: String,
}

/// A bounded-memory CSV reader: a [`BatchSource`]
/// of [`Table`] batches of at most `chunk_rows` rows each, over any
/// [`BufRead`].
///
/// The header row is read and validated eagerly by
/// [`CsvChunkReader::new`], so a malformed header fails before any
/// batch is produced. Blank lines are skipped and do not count toward
/// batch sizes; line numbers in errors are physical 1-based stream
/// lines (the header is line 1). After the first error the reader
/// fuses (`next_batch` returns `Ok(None)` forever) — a torn stream is
/// not resumable.
#[derive(Debug)]
pub struct CsvChunkReader<R: BufRead> {
    schema: Arc<Schema>,
    /// Per column, label → code for nominal columns (first occurrence
    /// wins, like [`Attribute::code`](crate::Attribute::code)); empty
    /// for the others.
    labels: Vec<LabelTable>,
    lines: Lines<R>,
    chunk_rows: usize,
    done: bool,
    rows_emitted: usize,
    /// Out-of-band row count the stream must deliver exactly; see
    /// [`CsvChunkReader::with_expected_rows`].
    expected_rows: Option<usize>,
    quarantine: Quarantine,
}

impl<R: BufRead> CsvChunkReader<R> {
    /// Open a chunked reader: reads and validates the header row.
    /// `chunk_rows` is clamped to at least 1.
    pub fn new(schema: Arc<Schema>, reader: R, chunk_rows: usize) -> Result<Self, TableError> {
        let mut lines = Lines { reader, buf: Vec::new(), in_place: 0, line_no: 0 };
        let Some((_, header)) = lines.next()? else {
            return Err(TableError::Csv("missing header row".into()));
        };
        let names: Vec<&str> = utf8(header)?.split(',').collect();
        if names.len() != schema.len() {
            return Err(TableError::Csv(format!(
                "header has {} columns, schema has {}",
                names.len(),
                schema.len()
            )));
        }
        for (i, name) in names.iter().enumerate() {
            if schema.attr(i).name != *name {
                return Err(TableError::Csv(format!(
                    "header column {i} is `{name}`, schema expects `{}`",
                    schema.attr(i).name
                )));
            }
        }
        let labels =
            schema.attributes().iter().map(|attr| LabelTable::new(attr_labels(attr))).collect();
        Ok(CsvChunkReader {
            schema,
            labels,
            lines,
            chunk_rows: chunk_rows.max(1),
            done: false,
            rows_emitted: 0,
            expected_rows: None,
            quarantine: Quarantine::default(),
        })
    }

    /// Declare how many data rows the stream must deliver. CSV carries
    /// no framing, so a stream torn exactly at a line boundary is
    /// indistinguishable from a shorter file — unless the consumer
    /// knows the count out of band (a generator's row budget, a chaos
    /// harness). With an expectation set, an early
    /// end of stream becomes a typed [`TableError::Csv`] naming both
    /// counts instead of a silently truncated relation.
    pub fn with_expected_rows(mut self, n_rows: usize) -> Self {
        self.expected_rows = Some(n_rows);
        self
    }

    /// Switch the reader into quarantine mode: up to `max_bad_rows`
    /// malformed data rows (wrong arity or unparseable cells) are
    /// captured as [`QuarantinedRow`]s instead of aborting the stream.
    /// One malformed row beyond the budget is a typed
    /// [`TableError::QuarantineBudget`]. I/O errors, header errors and
    /// lines over [`MAX_LINE_BYTES`] are never quarantined — they mean
    /// the stream itself is broken, not a row.
    pub fn with_quarantine(mut self, max_bad_rows: usize) -> Self {
        self.quarantine.max_bad_rows = Some(max_bad_rows);
        self
    }

    /// Drain the malformed rows captured since the last call, in
    /// stream order. Memory held here is bounded by the error budget.
    pub fn take_quarantined(&mut self) -> Vec<QuarantinedRow> {
        std::mem::take(&mut self.quarantine.rows)
    }

    /// Total malformed rows absorbed so far, drained or not.
    pub fn quarantined_total(&self) -> usize {
        self.quarantine.total
    }

    /// Skip the next `n` data rows without parsing their cells — the
    /// fast-forward a resumed job uses to reposition an input after
    /// rows a previous incarnation already consumed. Skipped rows
    /// count toward [`BatchSource::rows_emitted`] (and the
    /// expected-row check), and line numbering stays physical. End of
    /// stream before `n` rows is a typed error: the input is shorter
    /// than its journal says was already consumed.
    pub fn skip_data_rows(&mut self, n: usize) -> Result<(), TableError> {
        let mut skipped = 0;
        while skipped < n {
            // A broken stream fuses the reader, as in `next_batch`.
            let Some((_, line)) = self.lines.next().inspect_err(|_| self.done = true)? else {
                return Err(TableError::Csv(format!(
                    "stream ended after {skipped} data rows while skipping {n} \
                     already-consumed rows (line {}) — input shorter than its journal",
                    self.lines.line_no
                )));
            };
            utf8(line).inspect_err(|_| self.done = true)?;
            if !line.is_empty() {
                skipped += 1;
            }
        }
        self.rows_emitted += n;
        Ok(())
    }

    /// The physical line number of the last line read (1-based; the
    /// header is line 1).
    pub fn line_no(&self) -> usize {
        self.lines.line_no
    }

    /// Parse data rows straight into `columns` until the batch holds
    /// `chunk_rows` rows or the stream ends, skipping blank lines and
    /// absorbing malformed rows in quarantine mode. Returns the batch's
    /// row count, which every column's length equals.
    fn fill(&mut self, columns: &mut [Column]) -> Result<usize, TableError> {
        let attrs = self.schema.attributes();
        let mut sinks: Vec<Sink<'_>> = columns
            .iter_mut()
            .zip(&self.labels)
            .zip(attrs)
            .map(|((col, table), attr)| Sink::new(col, table, attr_labels(attr)))
            .collect();
        let mut n_rows = 0;
        while n_rows < self.chunk_rows {
            let Some((line_no, line)) = self.lines.next()? else {
                break;
            };
            if line.is_empty() {
                continue;
            }
            match push_row(&mut sinks, attrs, line, line_no, n_rows) {
                Ok(()) => n_rows += 1,
                // Invalid UTF-8: the stream is broken, not the row.
                Err(e @ TableError::Io(_)) => return Err(e),
                Err(e) => self.quarantine.absorb(line_no, line, e)?,
            }
        }
        Ok(n_rows)
    }
}

/// Batches in stream order, fused after the end or the first error,
/// with offset bookkeeping.
impl<R: BufRead> BatchSource for CsvChunkReader<R> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        if self.done {
            return Ok(None);
        }
        // Fused unless a batch comes back: an error or the end of the
        // stream leaves `done` set.
        self.done = true;
        let reserve = self.chunk_rows.min(BATCH_RESERVE_ROWS);
        let mut columns: Vec<Column> = self
            .schema
            .attributes()
            .iter()
            .map(|attr| {
                let mut col = Column::for_type(&attr.ty);
                col.reserve(reserve);
                col
            })
            .collect();
        let n_rows = self.fill(&mut columns)?;
        if n_rows > 0 {
            self.done = false;
            self.rows_emitted += n_rows;
            return Table::from_parts(self.schema.clone(), columns, n_rows).map(Some);
        }
        match self.expected_rows {
            Some(expected) if expected != self.rows_emitted => Err(TableError::Csv(format!(
                "stream ended after {} data rows, expected {expected} (line {}) — truncated input",
                self.rows_emitted, self.lines.line_no
            ))),
            _ => Ok(None),
        }
    }

    fn rows_emitted(&self) -> usize {
        self.rows_emitted
    }

    fn row_count_hint(&self) -> Option<usize> {
        self.expected_rows
    }
}

/// A reader's malformed-row policy and what it has absorbed.
#[derive(Debug, Default)]
struct Quarantine {
    /// Error budget for quarantine mode; `None` means any malformed
    /// row is fatal (the default).
    max_bad_rows: Option<usize>,
    /// Malformed rows absorbed so far, in stream order, awaiting
    /// [`CsvChunkReader::take_quarantined`]. Bounded by the budget.
    rows: Vec<QuarantinedRow>,
    /// Total malformed rows absorbed, including already-drained ones.
    total: usize,
}

impl Quarantine {
    /// Capture the malformed row at `line`, or hand back its error: in
    /// fatal mode, and (as [`TableError::QuarantineBudget`]) once the
    /// budget is spent. `raw` is the refused line, which [`push_row`]
    /// has checked for UTF-8.
    fn absorb(&mut self, line: usize, raw: &[u8], error: TableError) -> Result<(), TableError> {
        let Some(budget) = self.max_bad_rows else {
            return Err(error);
        };
        if self.total >= budget {
            return Err(TableError::QuarantineBudget { max_bad_rows: budget, line });
        }
        self.total += 1;
        let raw = String::from_utf8_lossy(raw).into_owned();
        self.rows.push(QuarantinedRow { line, error, raw });
        Ok(())
    }
}

/// The physical lines of a stream, found as bytes in the reader's own
/// buffer, through a [`MAX_LINE_BYTES`] window.
#[derive(Debug)]
struct Lines<R> {
    reader: R,
    /// The last line, when it straddled two buffer fills.
    buf: Vec<u8>,
    /// The length of the last line when it lay whole in the reader's
    /// buffer (0 otherwise): the bytes the next call consumes.
    in_place: usize,
    /// The 1-based number of the last line read (0 before the header).
    line_no: usize,
}

impl<R: BufRead> Lines<R> {
    /// The next line's number and bytes, trailing `\r`/`\n` trimmed, or
    /// `None` at end of stream. A line over the cap is a
    /// [`TableError::Csv`]. The bytes are not checked for UTF-8.
    fn next(&mut self) -> Result<Option<(usize, &[u8])>, TableError> {
        self.reader.consume(std::mem::take(&mut self.in_place));
        self.buf.clear();
        loop {
            let (newline, available) = self.peek()?;
            let len = newline.map_or(available, |i| i + 1);
            if self.buf.len() + len > MAX_LINE_BYTES {
                return Err(TableError::Csv(format!(
                    "line {}: longer than {MAX_LINE_BYTES} bytes, the line cap",
                    self.line_no + 1
                )));
            }
            if available == 0 {
                if self.buf.is_empty() {
                    return Ok(None);
                }
                break;
            }
            if newline.is_some() && self.buf.is_empty() {
                self.in_place = len;
                break;
            }
            self.buf.extend_from_slice(&self.reader.fill_buf()?[..len]);
            self.reader.consume(len);
            if newline.is_some() {
                break;
            }
        }
        self.line_no += 1;
        let line = match self.in_place {
            0 => &self.buf[..],
            len => &self.reader.fill_buf()?[..len],
        };
        let end = line.iter().rposition(|&b| b != b'\n' && b != b'\r').map_or(0, |i| i + 1);
        Ok(Some((self.line_no, &line[..end])))
    }

    /// The position of the first newline in the reader's buffer, if
    /// any, and the buffer's length (0 at end of stream).
    fn peek(&mut self) -> io::Result<(Option<usize>, usize)> {
        loop {
            match self.reader.fill_buf() {
                Ok(bytes) => return Ok((find_byte(bytes, b'\n'), bytes.len())),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The position of the first `needle` in `haystack`, eight bytes at a
/// time. `needle` is not 0, which the zero padding of a short last word
/// would match.
fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    debug_assert_ne!(needle, 0);
    let mut at = 0;
    while at < haystack.len() {
        let matches = byte_mask(pack(&haystack[at..]), needle);
        if matches != 0 {
            return Some(at + (matches.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    None
}

/// The high bit of each byte of `word` that equals `needle`: the exact
/// zero-byte test on `word ^ needle·0x0101…01`, where `(x & 0x7f) +
/// 0x7f` carries into a byte's high bit unless its low seven bits are
/// zero, and never into the next byte.
fn byte_mask(word: u64, needle: u8) -> u64 {
    const LO: u64 = 0x0101_0101_0101_0101;
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let x = word ^ (LO * u64::from(needle));
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The `,`-separated cells of a line, as `slice::split` yields them
/// (one empty cell for an empty line).
struct SplitCells<'a>(Option<&'a [u8]>);

impl<'a> Iterator for SplitCells<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = self.0?;
        Some(match find_byte(rest, b',') {
            Some(at) => {
                self.0 = Some(&rest[at + 1..]);
                &rest[..at]
            }
            None => {
                self.0 = None;
                rest
            }
        })
    }
}

/// `bytes` as text, or the [`TableError::Io`] of a stream that is not
/// UTF-8.
fn utf8(bytes: &[u8]) -> Result<&str, TableError> {
    std::str::from_utf8(bytes)
        .map_err(|_| TableError::Io("stream did not contain valid UTF-8".into()))
}

/// The labels of a nominal attribute; none for the other kinds.
fn attr_labels(attr: &Attribute) -> &[String] {
    match &attr.ty {
        AttrType::Nominal { labels } => labels,
        _ => &[],
    }
}

/// Label → code for one nominal column: an open-addressing table with
/// linear probing, at most half full. A slot's key is the label's
/// first 8 bytes packed into a `u64` (zero-padded) plus the label's
/// length, so a label of at most 8 bytes is matched by two integer
/// compares; a longer one is then compared in full against the
/// schema's label. The first label with a given text wins, like
/// [`Attribute::code`](crate::Attribute::code).
///
/// The home slot hashes the key and, for a label longer than 8 bytes,
/// every further byte, so labels that share a prefix and a length
/// (`product-000001`, `product-000002`, …) still spread over the table.
#[derive(Debug)]
struct LabelTable {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the slot.
    shift: u32,
}

/// One [`LabelTable`] slot; `code == EMPTY` marks a free one.
#[derive(Debug, Clone, Copy)]
struct Slot {
    prefix: u64,
    len: u32,
    code: u32,
}

impl Slot {
    const EMPTY: u32 = u32::MAX;
}

impl LabelTable {
    /// The odd multiplier of the hash (2^64 / golden ratio).
    const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new(labels: &[String]) -> Self {
        let n_slots = (2 * labels.len()).next_power_of_two().max(2);
        let mut table = LabelTable {
            slots: vec![Slot { prefix: 0, len: 0, code: Slot::EMPTY }; n_slots],
            shift: 64 - n_slots.trailing_zeros(),
        };
        for (code, label) in labels.iter().enumerate() {
            let label = label.as_bytes();
            if let Err(at) = table.probe(label, labels) {
                let len = label.len() as u32;
                table.slots[at] = Slot { prefix: pack(label), len, code: code as u32 };
            }
        }
        table
    }

    /// The slot where the probe for `cell` starts; `prefix` is
    /// `pack(cell)`.
    fn home(&self, prefix: u64, cell: &[u8]) -> usize {
        let mut key = prefix ^ cell.len() as u64;
        if cell.len() > 8 {
            for chunk in cell[8..].chunks(8) {
                key = key.wrapping_mul(Self::MIX).rotate_left(31) ^ pack(chunk);
            }
        }
        (key.wrapping_mul(Self::MIX) >> self.shift) as usize
    }

    /// The code of the label spelled `cell` (`labels` are the column's
    /// labels the table was built from).
    fn get(&self, cell: &[u8], labels: &[String]) -> Option<u32> {
        self.probe(cell, labels).ok()
    }

    /// `Ok(code)` of the label spelled `cell`, or `Err(slot)`: the free
    /// slot where its probe ended.
    fn probe(&self, cell: &[u8], labels: &[String]) -> Result<u32, usize> {
        let prefix = pack(cell);
        let len = cell.len();
        let mask = self.slots.len() - 1;
        let mut at = self.home(prefix, cell);
        loop {
            let slot = self.slots[at];
            if slot.code == Slot::EMPTY {
                return Err(at);
            }
            if slot.prefix == prefix
                && slot.len as usize == len
                && (len <= 8 || labels[slot.code as usize].as_bytes() == cell)
            {
                return Ok(slot.code);
            }
            at = (at + 1) & mask;
        }
    }
}

/// The first 8 bytes of `bytes`, zero-padded, as a little-endian `u64`:
/// one load for 8 bytes or more, two overlapping 4-byte loads for 4 to
/// 7, and three byte loads (the first, middle and last) for 1 to 3.
fn pack(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    let word =
        |at: usize| u64::from(u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")));
    match n {
        8.. => u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
        4..=7 => word(0) | word(n - 4) << (8 * (n - 4)),
        1..=3 => {
            let byte = |at: usize| u64::from(bytes[at]) << (8 * at);
            byte(0) | byte(n / 2) | byte(n - 1)
        }
        0 => 0,
    }
}

/// A numeric cell's value. An unsigned integer of at most 15 digits is
/// below 2^53, so accumulating it in a `u64` and converting is exact and
/// gives the bits `str::parse::<f64>` gives; every other cell goes
/// through `str::parse::<f64>`. NaN and ±inf are refused, so every read
/// number is finite. The error is what the cell is not.
fn parse_number(cell: &[u8]) -> Result<f64, &'static str> {
    if cell.len() <= 15 && cell.iter().all(u8::is_ascii_digit) {
        let n = cell.iter().fold(0u64, |n, &b| n * 10 + u64::from(b - b'0'));
        return Ok(n as f64);
    }
    let x: f64 = std::str::from_utf8(cell).ok().and_then(|s| s.parse().ok()).ok_or("a number")?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err("a finite number")
    }
}

/// One batch column resolved to its typed vector (and, for nominal
/// columns, the label table its cells are looked up in and the labels
/// behind it).
enum Sink<'a> {
    Nominal(&'a mut Vec<Option<u32>>, &'a LabelTable, &'a [String]),
    Number(&'a mut Vec<Option<f64>>),
    Date(&'a mut Vec<Option<i64>>),
}

impl<'a> Sink<'a> {
    fn new(column: &'a mut Column, table: &'a LabelTable, labels: &'a [String]) -> Self {
        match column {
            Column::Nominal(cells) => Sink::Nominal(cells, table, labels),
            Column::Number(cells) => Sink::Number(cells),
            Column::Date(cells) => Sink::Date(cells),
        }
    }

    /// Parse `cell` onto the column; the empty cell is NULL. A bad cell
    /// pushes nothing and returns what it is not (the tail of its error
    /// message).
    fn push(&mut self, cell: &[u8]) -> Result<(), &'static str> {
        match self {
            Sink::Nominal(cells, table, labels) => {
                let code = match cell {
                    [] => None,
                    // `#<code>` is the escape for out-of-label codes
                    // written by the writer for polluted cells.
                    [b'#', code @ ..] => Some(
                        std::str::from_utf8(code)
                            .ok()
                            .and_then(|code| code.parse::<u32>().ok())
                            .ok_or("a `#<code>` escape")?,
                    ),
                    _ => Some(table.get(cell, labels).ok_or("a label of the domain")?),
                };
                cells.push(code);
            }
            Sink::Number(cells) => cells.push(match cell {
                [] => None,
                _ => Some(parse_number(cell)?),
            }),
            Sink::Date(cells) => cells.push(match cell {
                [] => None,
                _ => Some(parse_iso_bytes(cell).ok_or("an ISO date")?),
            }),
        }
        Ok(())
    }

    /// Drop every cell past the first `n_rows`.
    fn truncate(&mut self, n_rows: usize) {
        match self {
            Sink::Nominal(cells, ..) => cells.truncate(n_rows),
            Sink::Number(cells) => cells.truncate(n_rows),
            Sink::Date(cells) => cells.truncate(n_rows),
        }
    }
}

/// Parse one non-blank data line onto the columns behind `sinks`, which
/// hold `n_rows` rows. On error every column is truncated back to
/// `n_rows`, so a rejected row leaves no cells behind.
fn push_row(
    sinks: &mut [Sink<'_>],
    attrs: &[Attribute],
    line: &[u8],
    line_no: usize,
    n_rows: usize,
) -> Result<(), TableError> {
    let pushed = push_cells(sinks, attrs, line, line_no);
    if pushed.is_err() {
        for sink in sinks {
            sink.truncate(n_rows);
        }
    }
    pushed
}

/// The cells of [`push_row`], split off the line in one pass. A refused
/// line that is not UTF-8 is the [`TableError::Io`] of a broken stream.
/// Otherwise an arity error, which needs the full cell count, takes
/// precedence over a bad cell.
fn push_cells(
    sinks: &mut [Sink<'_>],
    attrs: &[Attribute],
    line: &[u8],
    line_no: usize,
) -> Result<(), TableError> {
    let width = sinks.len();
    let mut cells = SplitCells(Some(line));
    let mut n_cells = 0;
    let mut bad_cell = None;
    for (sink, cell) in sinks.iter_mut().zip(&mut cells) {
        n_cells += 1;
        if let Err(what) = sink.push(cell) {
            bad_cell = Some((n_cells - 1, cell, what));
            break;
        }
    }
    n_cells += cells.count();
    if n_cells == width && bad_cell.is_none() {
        return Ok(());
    }
    utf8(line)?;
    Err(match bad_cell {
        Some((c, cell, what)) if n_cells == width => TableError::CsvCell {
            line: line_no,
            column: attrs[c].name.clone(),
            message: format!("`{}` is not {what}", String::from_utf8_lossy(cell)),
        },
        _ => TableError::Csv(format!("line {line_no}: {n_cells} cells, schema has {width}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::value::Value;

    fn schema() -> Arc<Schema> {
        SchemaBuilder::new()
            .nominal("color", ["red", "green"])
            .numeric("size", 0.0, 100.0)
            .date_ymd("built", (2000, 1, 1), (2010, 1, 1))
            .build()
            .unwrap()
    }

    #[test]
    fn round_trip() {
        let s = schema();
        let mut t = Table::new(s.clone());
        t.push_row(&[Value::Nominal(1), Value::Number(4.5), Value::Null]).unwrap();
        t.push_row(&[
            Value::Null,
            Value::Null,
            Value::Date(crate::date::days_from_civil(2005, 6, 7)),
        ])
        .unwrap();

        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("color,size,built\n"));
        assert!(text.contains("green,4.5,\n"));
        assert!(text.contains(",,2005-06-07\n"));

        let back = read_csv(s, &buf[..]).unwrap();
        assert_eq!(back.n_rows(), 2);
        for r in 0..2 {
            assert_eq!(back.row(r), t.row(r));
        }
    }

    #[test]
    fn rejects_wrong_header() {
        let s = schema();
        assert!(read_csv(s.clone(), "a,b,c\n".as_bytes()).is_err());
        assert!(read_csv(s.clone(), "color,size\n".as_bytes()).is_err());
        assert!(read_csv(s, "".as_bytes()).is_err());
    }

    #[test]
    fn rejects_bad_cells() {
        let s = schema();
        let err = |row: &str| {
            let input = format!("color,size,built\nred,1,\n{row}\n");
            read_csv(s.clone(), input.as_bytes()).unwrap_err().to_string()
        };
        assert_eq!(err("red,1"), "csv error: line 3: 2 cells, schema has 3");
        assert_eq!(err("red,1,,x"), "csv error: line 3: 4 cells, schema has 3");
        // The arity error wins over a bad cell on the same line.
        assert_eq!(err("mauve,xx,,"), "csv error: line 3: 4 cells, schema has 3");
        assert_eq!(
            err("mauve,1,"),
            "csv error: line 3, column `color`: `mauve` is not a label of the domain"
        );
        assert_eq!(
            err("#x,1,"),
            "csv error: line 3, column `color`: `#x` is not a `#<code>` escape"
        );
        assert_eq!(err("red,xx,"), "csv error: line 3, column `size`: `xx` is not a number");
        assert_eq!(
            err("red,1,tuesday"),
            "csv error: line 3, column `built`: `tuesday` is not an ISO date"
        );

        // Invalid UTF-8 is a broken stream, fatal even in quarantine mode.
        let input = b"color,size,built\nred,1,\nr\xffd,1,\nred,2,\n";
        let utf8 = TableError::Io("stream did not contain valid UTF-8".into());
        assert_eq!(read_csv(s.clone(), &input[..]).unwrap_err(), utf8);
        let mut reader = CsvChunkReader::new(s.clone(), &input[..], 1).unwrap().with_quarantine(9);
        assert_eq!(reader.next_batch().unwrap().unwrap().n_rows(), 1);
        assert_eq!(reader.next_batch().unwrap_err(), utf8);
        assert!(matches!(reader.next_batch(), Ok(None)), "fused");

        // Quarantine keeps the raw text of a too-long row, CR trimmed.
        let input = "color,size,built\nred,1,,x\r\n";
        let mut reader = CsvChunkReader::new(s, input.as_bytes(), 4).unwrap().with_quarantine(1);
        assert!(reader.next_batch().unwrap().is_none());
        let arity = TableError::Csv("line 2: 4 cells, schema has 3".into());
        let quarantined = QuarantinedRow { line: 2, error: arity, raw: "red,1,,x".into() };
        assert_eq!(reader.take_quarantined(), vec![quarantined]);
    }

    #[test]
    fn lines_over_the_cap_are_fatal_and_fuse_the_reader() {
        // A valid row of exactly `len` bytes, newline included.
        let row = |len: usize| format!("red,{}1,\n", "0".repeat(len - 7));
        let cap_error =
            TableError::Csv(format!("line 3: longer than {MAX_LINE_BYTES} bytes, the line cap"));
        let long = "r".repeat(2 << 20);
        let cases = [
            (format!("{long}\nred,2,\n"), false),
            (long.clone(), false),
            (format!("{long},1,\nred,2,\n"), true),
            (row(MAX_LINE_BYTES + 1), false),
        ];
        for (body, quarantine) in cases {
            let input = format!("color,size,built\nred,1,\n{body}");
            let mut reader = CsvChunkReader::new(schema(), input.as_bytes(), 1).unwrap();
            if quarantine {
                reader = reader.with_quarantine(9);
            }
            assert_eq!(reader.next_batch().unwrap().unwrap().n_rows(), 1);
            assert_eq!(reader.next_batch().unwrap_err(), cap_error);
            assert!(matches!(reader.next_batch(), Ok(None)), "the reader must fuse");
            assert_eq!(reader.quarantined_total(), 0, "an over-cap line is never quarantined");
        }

        // A line exactly at the cap is an ordinary row.
        let input = format!("color,size,built\nred,1,\n{}", row(MAX_LINE_BYTES));
        let t = read_csv(schema(), input.as_bytes()).unwrap();
        assert_eq!(t.get(1, 1), Value::Number(1.0));

        // Skipping reads through the same cap, and fuses too.
        let input = format!("color,size,built\nred,1,\n{long}\nred,2,\n");
        let mut reader = CsvChunkReader::new(schema(), input.as_bytes(), 1).unwrap();
        assert_eq!(reader.skip_data_rows(2).unwrap_err(), cap_error);
        assert!(matches!(reader.next_batch(), Ok(None)), "the reader must fuse");
    }

    #[test]
    fn cell_errors_carry_line_and_column() {
        let s = schema();
        let input = "color,size,built\nred,1,\n\ngreen,oops,\n";
        let err = read_csv(s, input.as_bytes()).unwrap_err();
        match err {
            TableError::CsvCell { line, ref column, ref message } => {
                // Physical line: header=1, red=2, blank=3, green=4.
                assert_eq!(line, 4);
                assert_eq!(column, "size");
                assert!(message.contains("oops"), "got {message}");
            }
            other => panic!("expected CsvCell, got {other:?}"),
        }
        let shown = err.to_string();
        assert!(shown.contains("line 4"), "got {shown}");
        assert!(shown.contains("`size`"), "got {shown}");
    }

    #[test]
    fn out_of_label_codes_escape_and_round_trip() {
        // The switcher polluter can leave codes outside the label list;
        // they serialize as `#<code>` and read back verbatim.
        let s = schema();
        let mut t = Table::new(s.clone());
        t.push_row_lenient(&[Value::Nominal(7), Value::Number(1e9), Value::Null]).unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("#7,1000000000,\n"), "got:\n{text}");
        let back = read_csv(s.clone(), &buf[..]).unwrap();
        assert_eq!(back.row(0), t.row(0));
        // A malformed escape is a located error.
        let err = read_csv(s, "color,size,built\n#x,1,\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TableError::CsvCell { line: 2, .. }), "got {err:?}");
    }

    #[test]
    fn skips_blank_lines() {
        let s = schema();
        let t = read_csv(s, "color,size,built\n\nred,1,\n\n".as_bytes()).unwrap();
        assert_eq!(t.n_rows(), 1);
    }

    #[test]
    fn chunk_reader_batches_cover_the_stream() {
        let s = schema();
        let mut t = Table::new(s.clone());
        for i in 0..23 {
            t.push_row(&[Value::Nominal((i % 2) as u32), Value::Number(i as f64), Value::Null])
                .unwrap();
        }
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        for chunk_rows in [1, 2, 7, 23, 100] {
            let mut reader = CsvChunkReader::new(s.clone(), buf.as_slice(), chunk_rows).unwrap();
            let mut batches = Vec::new();
            while let Some(b) = reader.next_batch().unwrap() {
                batches.push(b);
            }
            // All but the last batch are full.
            for b in &batches[..batches.len().saturating_sub(1)] {
                assert_eq!(b.n_rows(), chunk_rows);
            }
            let mut row = 0;
            for b in &batches {
                assert!(b.n_rows() >= 1);
                for r in 0..b.n_rows() {
                    assert_eq!(b.row(r), t.row(row), "chunk_rows={chunk_rows}, row {row}");
                    row += 1;
                }
            }
            assert_eq!(row, t.n_rows(), "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn chunk_reader_validates_header_eagerly() {
        let s = schema();
        assert!(CsvChunkReader::new(s.clone(), "a,b,c\n".as_bytes(), 4).is_err());
        assert!(CsvChunkReader::new(s, "".as_bytes(), 4).is_err());
    }

    #[test]
    fn chunk_reader_empty_body_yields_no_batches() {
        let s = schema();
        let mut reader = CsvChunkReader::new(s, "color,size,built\n\n".as_bytes(), 4).unwrap();
        assert!(reader.next_batch().unwrap().is_none());
        assert!(reader.next_batch().unwrap().is_none());
    }

    #[test]
    fn chunk_reader_fuses_after_an_error() {
        let s = schema();
        let input = "color,size,built\nred,1,\nred,1,\nmauve,1,\nred,1,\n";
        let mut reader = CsvChunkReader::new(s, input.as_bytes(), 2).unwrap();
        assert_eq!(reader.next_batch().unwrap().unwrap().n_rows(), 2);
        let err = reader.next_batch().unwrap_err();
        assert!(matches!(err, TableError::CsvCell { line: 4, .. }), "got {err:?}");
        assert!(matches!(reader.next_batch(), Ok(None)), "the reader must fuse after an error");
    }

    #[test]
    fn expected_rows_turns_boundary_truncation_into_a_typed_error() {
        let input = "color,size,built\nred,1,\nred,2,\nred,3,\n";
        // A tear exactly at a line boundary: 3 rows arrive where 5 were
        // promised. Without the expectation this is a silently shorter
        // relation; with it, a typed error naming both counts.
        let mut reader =
            CsvChunkReader::new(schema(), input.as_bytes(), 2).unwrap().with_expected_rows(5);
        assert_eq!(reader.row_count_hint(), Some(5));
        assert!(BatchSource::next_batch(&mut reader).unwrap().is_some());
        let err = loop {
            match BatchSource::next_batch(&mut reader) {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncation must not end the stream cleanly"),
                Err(e) => break e,
            }
        };
        let msg = err.to_string();
        assert!(msg.contains('3') && msg.contains('5') && msg.contains("truncated"), "{msg}");
        assert!(matches!(BatchSource::next_batch(&mut reader), Ok(None)), "fused");

        // The exact count passes untouched.
        let mut reader =
            CsvChunkReader::new(schema(), input.as_bytes(), 2).unwrap().with_expected_rows(3);
        while BatchSource::next_batch(&mut reader).unwrap().is_some() {}
        assert_eq!(reader.rows_emitted(), 3);
    }

    #[test]
    fn append_writer_resumes_a_byte_identical_stream() {
        let s = schema();
        let mut t = Table::new(s.clone());
        for i in 0..10 {
            t.push_row(&[Value::Nominal((i % 2) as u32), Value::Number(i as f64), Value::Null])
                .unwrap();
        }
        let mut whole = Vec::new();
        write_csv(&t, &mut whole).unwrap();

        // Write 6 rows with a header, then "crash" and append the rest
        // through a header-less writer — the bytes must be identical.
        let mut resumed = Vec::new();
        let mut w = CsvWriter::new(s.clone(), &mut resumed).unwrap();
        w.write_batch(&t.slice_rows(0, 6).unwrap()).unwrap();
        w.finish().unwrap();
        let mut w = CsvWriter::append(s, &mut resumed);
        w.write_batch(&t.slice_rows(6, 10).unwrap()).unwrap();
        w.finish().unwrap();
        assert_eq!(whole, resumed);
    }

    #[test]
    fn skip_data_rows_fast_forwards_past_consumed_rows() {
        let s = schema();
        let input = "color,size,built\nred,1,\n\nred,2,\nred,3,\nred,4,\n";
        let mut reader = CsvChunkReader::new(s.clone(), input.as_bytes(), 100).unwrap();
        reader.skip_data_rows(2).unwrap();
        assert_eq!(reader.rows_emitted(), 2);
        let batch = BatchSource::next_batch(&mut reader).unwrap().unwrap();
        assert_eq!(batch.n_rows(), 2);
        assert_eq!(batch.get(0, 1), Value::Number(3.0));
        assert_eq!(reader.rows_emitted(), 4);

        // Skipping past the end names both counts.
        let mut reader = CsvChunkReader::new(s, input.as_bytes(), 100).unwrap();
        let err = reader.skip_data_rows(9).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("after 4") && msg.contains("skipping 9"), "{msg}");
    }

    #[test]
    fn quarantine_reroutes_bad_rows_and_keeps_good_ones() {
        let s = schema();
        let input = "color,size,built\nred,1,\nmauve,2,\nred,notanumber,\nred,4,\nred,5\n";
        let mut reader = CsvChunkReader::new(s, input.as_bytes(), 2).unwrap().with_quarantine(10);
        let mut rows = 0;
        while let Some(b) = BatchSource::next_batch(&mut reader).unwrap() {
            rows += b.n_rows();
        }
        assert_eq!(rows, 2, "only the two well-formed rows flow through");
        let quarantined = reader.take_quarantined();
        assert_eq!(reader.quarantined_total(), 3);
        let lines: Vec<usize> = quarantined.iter().map(|q| q.line).collect();
        assert_eq!(lines, vec![3, 4, 6]);
        assert_eq!(quarantined[0].raw, "mauve,2,");
        assert!(matches!(quarantined[0].error, TableError::CsvCell { line: 3, .. }));
        assert!(matches!(quarantined[2].error, TableError::Csv(_)), "arity error quarantines");
        assert!(reader.take_quarantined().is_empty(), "take drains");
    }

    #[test]
    fn quarantine_budget_overflow_is_a_typed_error() {
        let s = schema();
        let input = "color,size,built\nmauve,1,\nmauve,2,\nmauve,3,\nred,4,\n";
        let mut reader = CsvChunkReader::new(s, input.as_bytes(), 100).unwrap().with_quarantine(2);
        let err = loop {
            match BatchSource::next_batch(&mut reader) {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("budget overflow must not end the stream cleanly"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, TableError::QuarantineBudget { max_bad_rows: 2, line: 4 });
        assert!(matches!(BatchSource::next_batch(&mut reader), Ok(None)), "fused");
        assert_eq!(reader.take_quarantined().len(), 2, "budgeted rows were still captured");
    }

    #[test]
    fn a_rejected_row_leaves_every_column_at_the_row_count() {
        let s = schema();
        let tables: Vec<LabelTable> =
            s.attributes().iter().map(|a| LabelTable::new(attr_labels(a))).collect();
        let mut columns: Vec<Column> =
            s.attributes().iter().map(|a| Column::for_type(&a.ty)).collect();
        let mut n_rows = 0;
        // Good, bad last cell, too short, too long, bad first cell, good
        // (all NULL), bad last cell, good.
        let lines =
            [",1,2000-01-01", "#3,1,2000-02-30", ",1", ",1,,", "#x,1,", ",,", ",2,x", ",3,"];
        for (i, line) in lines.into_iter().enumerate() {
            let mut sinks: Vec<Sink<'_>> = columns
                .iter_mut()
                .zip(&tables)
                .zip(s.attributes())
                .map(|((col, table), attr)| Sink::new(col, table, attr_labels(attr)))
                .collect();
            if push_row(&mut sinks, s.attributes(), line.as_bytes(), i + 2, n_rows).is_ok() {
                n_rows += 1;
            }
            assert!(columns.iter().all(|c| c.len() == n_rows), "after `{line}`: {columns:?}");
        }
        assert_eq!(n_rows, 3);
    }

    #[test]
    fn chunk_reader_clamps_zero_chunk_rows() {
        let s = schema();
        let input = "color,size,built\nred,1,\n";
        let mut reader = CsvChunkReader::new(s, input.as_bytes(), 0).unwrap();
        assert_eq!(reader.next_batch().unwrap().unwrap().n_rows(), 1);
        assert!(reader.next_batch().unwrap().is_none());
    }

    /// Reads `input` through a `BufReader` of every small capacity, so
    /// lines straddle buffer fills at every offset, and checks each
    /// read agrees with the read of the whole slice.
    fn read_at_every_capacity(s: &Arc<Schema>, input: &[u8]) -> Result<Table, TableError> {
        let whole = read_csv(s.clone(), input);
        for capacity in 1..=17 {
            let got = read_csv(s.clone(), BufReader::with_capacity(capacity, input));
            match (&got, &whole) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.n_rows(), b.n_rows(), "capacity {capacity}");
                    for r in 0..a.n_rows() {
                        assert_eq!(a.row(r), b.row(r), "capacity {capacity}, row {r}");
                    }
                }
                (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "capacity {capacity}"),
            }
        }
        whole
    }

    #[test]
    fn find_byte_and_cells_agree_with_the_slice_methods() {
        let text = b"ab,,c\n\x80,\xff,\n,-longer cell\0here,\x2c\x0a,,end,-,+";
        for start in 0..text.len() {
            for end in start..=text.len() {
                let s = &text[start..end];
                for needle in [b'\n', b',', b'-', 0x80, 0xff, b'e'] {
                    assert_eq!(find_byte(s, needle), s.iter().position(|&b| b == needle));
                }
                let split: Vec<&[u8]> = s.split(|&b| b == b',').collect();
                assert_eq!(SplitCells(Some(s)).collect::<Vec<_>>(), split, "{s:?}");
            }
        }
    }

    #[test]
    fn lines_straddling_buffer_fills_read_like_whole_lines() {
        let s = schema();
        let input = "color,size,built\r\nred,1,2000-01-01\n\n\r\ngreen,12345,\r\r\n,,\nred,2.5,";
        let t = read_at_every_capacity(&s, input.as_bytes()).unwrap();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.get(1, 1), Value::Number(12345.0));
        assert_eq!(t.get(3, 1), Value::Number(2.5));
        let bad = "color,size,built\nred,1,\ngreen,x,\n";
        let err = read_at_every_capacity(&s, bad.as_bytes()).unwrap_err();
        assert!(matches!(err, TableError::CsvCell { line: 3, .. }), "got {err:?}");

        // The line cap holds when the line arrives in pieces.
        let long = format!("color,size,built\nred,1,\n{}\n", "r".repeat(MAX_LINE_BYTES + 1));
        let err = read_csv(s, BufReader::with_capacity(4096, long.as_bytes())).unwrap_err();
        let cap = format!("line 3: longer than {MAX_LINE_BYTES} bytes, the line cap");
        assert_eq!(err, TableError::Csv(cap));
    }

    #[test]
    fn label_table_finds_the_first_label_with_the_cell_bytes() {
        let labels: Vec<String> = [
            "red",
            "ab",
            "ab\0",
            "dup",
            "dup",
            "abcdefgh",
            "abcdefgh-one",
            "abcdefgh-two",
            "abcdefgh-one",
            "héllo",
            "日本語のラベル",
            "#hash",
        ]
        .map(String::from)
        .into_iter()
        .chain((0..300).map(|i| format!("v{i}")))
        .chain((0..40).map(|i| format!("a-long-label-{i:03}")))
        .collect();
        let table = LabelTable::new(&labels);
        let first = |cell: &[u8]| labels.iter().position(|l| l.as_bytes() == cell);
        let mut cells: Vec<Vec<u8>> = labels.iter().map(|l| l.as_bytes().to_vec()).collect();
        for extra in [
            "a",
            "ab\0\0",
            "abcdefg",
            "abcdefghi",
            "abcdefgh-on",
            "abcdefgh-onex",
            "abcdefgh-thr",
            "re",
            "redd",
            "RED",
            "hél",
            "日本語",
            "v300",
            "v",
            "a-long-label-",
            "a-long-label-040",
        ] {
            cells.push(extra.as_bytes().to_vec());
        }
        cells.push("日本語".as_bytes()[..4].to_vec());
        for cell in &cells {
            let expected = first(cell).map(|i| i as u32);
            assert_eq!(table.get(cell, &labels), expected, "{:?}", String::from_utf8_lossy(cell));
        }
        assert_eq!(table.get(b"dup", &labels), Some(3), "the first duplicate wins");
        assert_eq!(table.get(b"abcdefgh-one", &labels), Some(6), "the first duplicate wins");
        assert_eq!(LabelTable::new(&[]).get(b"red", &[]), None);

        // `pack` is the zero-padded little-endian prefix at every length.
        let text = b"abcdefghij";
        for n in 0..=text.len() {
            let mut word = [0u8; 8];
            word[..n.min(8)].copy_from_slice(&text[..n.min(8)]);
            assert_eq!(pack(&text[..n]), u64::from_le_bytes(word), "length {n}");
        }

        // Thousands of labels of one length that share their first 8
        // bytes, or all but a middle stretch, still spread: no probe
        // chain grows long.
        for domain in [
            (1..=5000).map(|i| format!("product-{i:06}")).collect::<Vec<_>>(),
            (1..=5000).map(|i| format!("category/{i:05}/item-name")).collect(),
        ] {
            let table = LabelTable::new(&domain);
            let mask = table.slots.len() - 1;
            let mut longest = 0;
            for (at, slot) in table.slots.iter().enumerate().filter(|(_, s)| s.code != Slot::EMPTY)
            {
                let label = domain[slot.code as usize].as_bytes();
                assert_eq!(table.get(label, &domain), Some(slot.code));
                longest = longest.max((at.wrapping_sub(table.home(slot.prefix, label)) & mask) + 1);
            }
            assert!(longest <= 16, "{}: a probe chain of {longest} slots", domain[0]);
        }

        // Through the reader, next to the `#<code>` escape.
        let s =
            SchemaBuilder::new().nominal("l", labels.iter().map(String::as_str)).build().unwrap();
        let input = "l\ndup\nab\nab\0\n日本語のラベル\nabcdefgh-two\n";
        let t = read_csv(s.clone(), input.as_bytes()).unwrap();
        let codes: Vec<Value> = (0..t.n_rows()).map(|r| t.get(r, 0)).collect();
        let expected = [3, 1, 2, 10, 7].map(Value::Nominal);
        assert_eq!(codes, expected);
        for cell in ["abcdefgh-", "ab\0\0", "日本語"] {
            let err = read_csv(s.clone(), format!("l\n{cell}\n").as_bytes()).unwrap_err();
            let message = format!("`{cell}` is not a label of the domain");
            assert_eq!(err, TableError::CsvCell { line: 2, column: "l".into(), message });
        }
    }

    #[test]
    fn escapes_accept_every_u32_spelling() {
        let s = schema();
        for (cell, code) in [("#+5", 5), ("#007", 7), ("#0", 0), ("#4294967295", u32::MAX)] {
            let t = read_csv(s.clone(), format!("color,size,built\n{cell},,\n").as_bytes());
            assert_eq!(t.unwrap().get(0, 0), Value::Nominal(code), "{cell}");
        }
        for cell in ["#", "#-1", "#4294967296", "# 5", "#5 ", "#0x5", "#+"] {
            let err = read_csv(s.clone(), format!("color,size,built\n{cell},,\n").as_bytes());
            let message = format!("`{cell}` is not a `#<code>` escape");
            let expected = TableError::CsvCell { line: 2, column: "color".into(), message };
            assert_eq!(err.unwrap_err(), expected);
        }
    }

    #[test]
    fn the_integer_fast_path_gives_the_bits_of_str_parse() {
        let cells = [
            "0",
            "00",
            "007",
            "9",
            "123456789012345",
            "999999999999999",
            "000000000000001",
            "1234567890123456",
            "9007199254740993",
            "12345678901234567",
            "99999999999999999",
            "-0",
            "+0",
            "1e3",
            "1.5",
            "-12",
        ];
        for cell in cells {
            let expected: f64 = cell.parse().unwrap();
            let got = parse_number(cell.as_bytes()).unwrap();
            assert_eq!(got.to_bits(), expected.to_bits(), "{cell}");
        }
        assert_eq!(parse_number(b"-0").unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn non_finite_numbers_are_cell_errors() {
        let s = schema();
        for cell in ["NaN", "nan", "inf", "-inf", "+infinity", "1e400", "-1e400"] {
            let input = format!("color,size,built\nred,1,\nred,{cell},\n");
            let message = format!("`{cell}` is not a finite number");
            let expected = TableError::CsvCell { line: 3, column: "size".into(), message };
            assert_eq!(read_csv(s.clone(), input.as_bytes()).unwrap_err(), expected);
            let mut reader =
                CsvChunkReader::new(s.clone(), input.as_bytes(), 9).unwrap().with_quarantine(1);
            assert_eq!(reader.next_batch().unwrap().unwrap().n_rows(), 1);
            let quarantined = reader.take_quarantined();
            assert_eq!(quarantined.len(), 1);
            assert_eq!(quarantined[0].error, expected);
            assert_eq!(quarantined[0].raw, format!("red,{cell},"));
        }
        // Finite extremes still read.
        let t = read_csv(s, "color,size,built\nred,1e308,\nred,-1e-320,\n".as_bytes()).unwrap();
        assert_eq!(t.get(0, 1), Value::Number(1e308));
        assert_eq!(t.get(1, 1), Value::Number(-1e-320));
    }

    #[test]
    fn invalid_utf8_in_any_cell_is_a_fatal_io_error() {
        let s = schema();
        let utf8 = TableError::Io("stream did not contain valid UTF-8".into());
        let bad_lines: [&[u8]; 6] = [
            b"r\xffd,1,",
            b"\xc3,1,",
            b"red,1\xff,",
            b"red,\xe6\x97,",
            b"red,1,2000-01-0\xff",
            b"red,1,\xf0\x9f\x98",
        ];
        for line in bad_lines {
            let mut input = b"color,size,built\nred,1,\n".to_vec();
            input.extend_from_slice(line);
            input.extend_from_slice(b"\nred,2,\n");
            assert_eq!(read_csv(s.clone(), &input[..]).unwrap_err(), utf8, "{line:?}");
            let mut reader =
                CsvChunkReader::new(s.clone(), &input[..], 9).unwrap().with_quarantine(9);
            assert_eq!(reader.next_batch().unwrap_err(), utf8, "{line:?}");
            assert!(matches!(reader.next_batch(), Ok(None)), "fused");
            assert_eq!(reader.quarantined_total(), 0);
            // An arity error on the same line is a broken stream too.
            let mut long = input.clone();
            let at = long.iter().rposition(|&b| b == b'\n').unwrap() - b"red,2,".len() - 1;
            long.insert(at, b',');
            assert_eq!(read_csv(s.clone(), &long[..]).unwrap_err(), utf8, "{line:?}");
        }
        // The header and skipped rows are checked as they are read.
        let header = b"col\xffr,size,built\nred,1,\n";
        assert_eq!(CsvChunkReader::new(s.clone(), &header[..], 9).unwrap_err(), utf8);
        let input = b"color,size,built\nr\xffd,1,\nred,2,\n";
        let mut reader = CsvChunkReader::new(s, &input[..], 9).unwrap();
        assert_eq!(reader.skip_data_rows(1).unwrap_err(), utf8);
        assert!(matches!(reader.next_batch(), Ok(None)), "fused");
    }
}
