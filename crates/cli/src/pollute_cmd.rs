//! `dq pollute` — corrupt a clean CSV with the standard suite and
//! write the ground-truth log.
//!
//! Runs chunk-at-a-time: the input streams through a
//! [`CsvChunkReader`] into a [`PolluteStream`] and straight out to the
//! dirty CSV, so a file (much) larger than RAM pollutes at O(chunk)
//! memory. Chunking never changes the bytes — the polluter consumes
//! its RNG strictly in clean-row order — so `--chunk-rows` is purely a
//! memory knob.
//!
//! With `--checkpoint DIR` the run journals its clean-row cursor, RNG
//! state, and output watermarks at every `--checkpoint-every`-batch
//! boundary; `--resume` continues a killed run byte-identically (the
//! input is re-opened and seeked to the cursor, the outputs truncated
//! to their committed watermarks).
//!
//! The pollution loop here, [`pollute_into`], is also the back half of
//! `dq generate tdg`, whose [`Tee`] renders each generated row once
//! for `clean.csv`: a dirty row that pollution left untouched (about
//! 95 % of them at factor 1) is written as a copy of those bytes, and
//! only touched rows are rendered again. `dq pollute` renders every
//! dirty row, because it writes no clean CSV whose bytes it could reuse.

use crate::args::{CliError, Flags};
use crate::checkpoint::{
    config_fingerprint, csv_header, refuse_overwriting_input, Job, JobFlags, OutputId,
};
use crate::io_util::{at, load_schema, say};
use dq_job::Journal;
use dq_pollute::{PolluteStream, PollutionConfig, CELLS_CSV_HEADER};
use dq_table::{BatchSource, CsvChunkReader, CsvRows, Schema, Table, TableError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;

pub const USAGE: &str = "dq pollute --schema F.dqs --input clean.csv --output dirty.csv \
                         [--log L.csv] [--factor X] [--seed N] [--chunk-rows N] [--threads N] \
                         [--checkpoint DIR] [--resume] [--checkpoint-every N]";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(
        args,
        &[
            "schema",
            "input",
            "output",
            "log",
            "factor",
            "seed",
            "chunk-rows",
            "threads",
            "checkpoint",
            "checkpoint-every",
        ],
        &["resume"],
    )?;
    let schema = load_schema(flags.require("schema")?)?;
    let input = Path::new(flags.require("input")?).to_path_buf();
    let output = Path::new(flags.require("output")?).to_path_buf();
    let log_path = flags.get("log").map(|p| Path::new(p).to_path_buf());
    let factor: f64 = flags.parse_or("factor", 1.0)?;
    let seed: u64 = flags.parse_or("seed", 2003)?;
    let chunk_rows: usize = flags.parse_positive_or("chunk-rows", 4096)?;
    // Pollution consumes one RNG in clean-row order, so it always runs
    // serial; the flag is validated for CLI uniformity only.
    let _threads: Option<usize> = flags.parse_positive_opt("threads")?;
    let job_flags = JobFlags::parse(&flags, USAGE)?;
    let mut outputs = vec![("output", output.as_path())];
    outputs.extend(log_path.as_deref().map(|log| ("log", log)));
    refuse_overwriting_input(&input, &outputs, USAGE)?;

    // Flags that shape the output bytes; `--threads` is excluded (it
    // never changes them), the input path is vouched for by the schema
    // fingerprint plus the cursor-vs-file checks on resume.
    let config = config_fingerprint(&[
        ("stage", "pollute".to_string()),
        ("factor", factor.to_string()),
        ("seed", seed.to_string()),
        ("chunk-rows", chunk_rows.to_string()),
        ("log", log_path.is_some().to_string()),
    ]);
    let Some(mut job) = Job::start(job_flags.as_ref(), "pollute", config, schema.fingerprint())?
    else {
        return Ok(());
    };

    let file = File::open(&input).map_err(|e| at(&input, e))?;
    let mut reader = CsvChunkReader::new(schema.clone(), BufReader::new(file), chunk_rows)
        .map_err(|e| at(&input, e))?;
    let start = PollutionStart::of(&job, StdRng::seed_from_u64(seed))?;
    reader.skip_data_rows(start.cursor).map_err(|e| at(&input, e))?;
    let dirty = job.bytes("dirty.csv", &output, &csv_header(&schema)?)?;
    let log = match &log_path {
        Some(path) => Some(job.bytes("log.csv", path, CELLS_CSV_HEADER.as_bytes())?),
        None => None,
    };

    let (clean_rows, dirty_rows, corrupted) = pollute_into(
        job,
        Tee::new(reader, None),
        PollutionConfig::standard().with_factor(factor),
        start,
        PollutionOutputs { dirty, log },
        &input,
    )?;
    let prevalence = if dirty_rows == 0 { 0.0 } else { corrupted as f64 / dirty_rows as f64 };
    say!(
        "polluted {clean_rows} rows -> {dirty_rows} rows ({corrupted} corrupted, prevalence \
         {:.2}%) at factor {factor}",
        prevalence * 100.0,
    );
    Ok(())
}

/// Where a pollution job starts: the clean-row cursor, the dirty and
/// corrupted rows already committed, and the pollution RNG at the
/// cursor — zero and `fresh` for a fresh run, the journal's for a
/// resumed one.
pub struct PollutionStart {
    pub cursor: usize,
    dirty_rows: usize,
    corrupted_rows: u64,
    rng: StdRng,
}

impl PollutionStart {
    pub fn of(job: &Job, fresh: StdRng) -> Result<PollutionStart, CliError> {
        let Some(journal) = job.resumed() else {
            return Ok(PollutionStart { cursor: 0, dirty_rows: 0, corrupted_rows: 0, rng: fresh });
        };
        let state = journal.rng.ok_or_else(|| {
            CliError::Runtime("journal records no rng state; refusing to resume".to_string())
        })?;
        Ok(PollutionStart {
            cursor: journal.cursor_rows as usize,
            dirty_rows: journal.counter("dirty_rows").unwrap_or(0) as usize,
            corrupted_rows: journal.counter("corrupted_rows").unwrap_or(0),
            rng: StdRng::from_state(state),
        })
    }
}

/// The job outputs a pollution run writes: every dirty batch to the
/// `dirty` CSV, the log cells each batch added to the optional
/// ground-truth `log`.
pub struct PollutionOutputs {
    pub dirty: OutputId,
    pub log: Option<OutputId>,
}

/// A [`BatchSource`] pass-through that renders every batch it passes
/// as CSV for the job output `out` — how `dq generate tdg` writes
/// `clean.csv` while pollution consumes the very same batches, in one
/// pass. Each clean row is rendered once: the tee keeps where each row
/// of the last batch ends in its rendered bytes, so [`pollute_into`]
/// builds the dirty CSV from those bytes for every row pollution left
/// untouched. Without an output (`dq pollute`) it is a plain
/// pass-through: there are no clean bytes to reuse, so the dirty CSV
/// renders every row.
pub struct Tee<S> {
    inner: S,
    out: Option<OutputId>,
    /// CSV rows rendered since the pollution loop last drained them.
    rendered: String,
    /// Where the last batch's rows begin in `rendered`.
    last_start: usize,
    /// Where each of the last batch's rows ends in `rendered`.
    row_ends: Vec<usize>,
}

impl<S> Tee<S> {
    pub fn new(inner: S, out: Option<OutputId>) -> Self {
        Tee { inner, out, rendered: String::new(), last_start: 0, row_ends: Vec::new() }
    }

    /// The rendered CSV line, newline included, of row `row` of the
    /// last batch passed.
    fn row(&self, row: usize) -> &str {
        let start = if row == 0 { self.last_start } else { self.row_ends[row - 1] };
        &self.rendered[start..self.row_ends[row]]
    }
}

impl<S: BatchSource> BatchSource for Tee<S> {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        let batch = self.inner.next_batch()?;
        if let (Some(batch), Some(_)) = (&batch, self.out) {
            self.last_start = self.rendered.len();
            self.row_ends.clear();
            CsvRows::new(batch).render_all(&mut self.rendered, &mut self.row_ends);
        }
        Ok(batch)
    }

    fn rows_emitted(&self) -> usize {
        self.inner.rows_emitted()
    }

    fn row_count_hint(&self) -> Option<usize> {
        self.inner.row_count_hint()
    }
}

/// The one pollution loop, shared by `dq pollute` and `dq generate
/// tdg`: drain `source` (already positioned at `start.cursor`) through
/// a [`PolluteStream`], and per dirty batch write it out, append the
/// log cells it added, and tick the job — which commits every
/// `--checkpoint-every` batches. The stream's log indices are global,
/// so the streamed log is byte-identical to a one-shot rendering at
/// the end. Returns `(clean rows, dirty rows, corrupted rows)` over
/// the whole job, previous incarnations included.
///
/// When the tee renders the clean rows, a dirty row that no polluter
/// touched is a copy of its clean row's bytes (twice for a duplicate);
/// every other row is rendered. The stream may pull several clean
/// batches before it returns a dirty one (pollution can delete a
/// batch whole); all of them go to the tee's output, and the copies
/// index the last, the batch that produced the dirty rows.
pub fn pollute_into<S: BatchSource>(
    mut job: Job,
    source: Tee<S>,
    config: PollutionConfig,
    start: PollutionStart,
    outputs: PollutionOutputs,
    input: &Path,
) -> Result<(usize, usize, u64), CliError> {
    let schema = source.schema().clone();
    let corrupted_base = start.corrupted_rows;
    let mut stream =
        PolluteStream::resume(source, config, start.rng, start.cursor, start.dirty_rows);
    let corrupted = |stream: &PolluteStream<Tee<S>, StdRng>| {
        corrupted_base + stream.log().n_corrupted_rows() as u64
    };
    let record = |stream: &PolluteStream<Tee<S>, StdRng>, journal: &mut Journal| {
        journal.cursor_rows = stream.clean_rows_seen() as u64;
        journal.rng = Some(stream.rng().state());
        journal.set_counter("dirty_rows", stream.rows_emitted() as u64);
        journal.set_counter("corrupted_rows", corrupted(stream));
    };

    // Commit before the first batch: a fresh run gets a cursor-zero
    // journal (so a crash anywhere leaves something to resume), a
    // resumed run re-commits the state it restored.
    job.commit(|journal| record(&stream, journal))?;
    let mut cells_rendered = 0usize;
    let mut cells = String::new();
    let copying = stream.source().out.is_some();
    let mut dirty_csv = String::new();
    loop {
        let batch = stream.next_batch().map_err(|e| at(input, e))?;
        if let Some(batch) = &batch {
            dirty_csv.clear();
            let rows = CsvRows::new(batch);
            for (r, copy) in stream.clean_copies().iter().enumerate() {
                match copy.filter(|_| copying) {
                    Some(clean_row) => dirty_csv.push_str(stream.source().row(clean_row)),
                    None => rows.render(r, &mut dirty_csv),
                }
            }
            job.write(outputs.dirty, dirty_csv.as_bytes())?;
        }
        // Hand over the tee'd clean rows before anything can commit:
        // the journal cursor counts every clean row pulled, including
        // the chunks pollution deleted entirely.
        let tee = stream.source_mut();
        if let Some(out) = tee.out {
            job.write(out, tee.rendered.as_bytes())?;
            tee.rendered.clear();
        }
        if batch.is_none() {
            break;
        }
        if let Some(log) = outputs.log {
            cells.clear();
            stream.log().render_cells_csv(&schema, cells_rendered, &mut cells);
            cells_rendered = stream.log().cells.len();
            job.write(log, cells.as_bytes())?;
        }
        job.tick(|journal| record(&stream, journal))?;
    }
    let totals = (stream.clean_rows_seen(), stream.rows_emitted(), corrupted(&stream));
    job.finish(|journal| record(&stream, journal))?;
    Ok(totals)
}
