//! The batch workloads' library side: input preparation, and the same
//! stages `dq induce`, `dq detect` and `dq generate tdg` run, called
//! through the crates' public functions with a span around each call
//! into a layer.
//!
//! Each `run_*` function mirrors its `dq` subcommand's default path
//! (`--threads 1`), writes the same output files, and returns them with
//! its work counts, so the benchmark can check the binary's outputs
//! against their digests byte for byte.

use crate::trace::{digest_file, Tracer};
use crate::Json;
use dq_core::{AuditConfig, AuditEngine, Auditor};
use dq_eval::Baseline;
use dq_job::{CheckpointDir, CountingWriter, Journal, Watermark};
use dq_pollute::{PolluteStream, CELLS_CSV_HEADER};
use dq_quis::{generate_quis, QuisConfig};
use dq_table::{
    read_csv, read_schema, render_schema, write_csv, BatchSource, CsvChunkReader, CsvWriter,
    Schema, Table, TableError,
};
use dq_tdg::{generate_rule_set, GenerateStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The tdg workload's fixed generator settings: streamed in 4096-row
/// chunks and journaled every 16 of them, `dq generate tdg`'s defaults.
const TDG_CHUNK_ROWS: usize = 4096;
const TDG_COMMIT_EVERY: usize = 16;
/// The batch size `dq detect` streams its input in by default.
const DETECT_CHUNK_ROWS: usize = 4096;

type Res<T> = Result<T, String>;

fn err(path: &Path, e: impl std::fmt::Display) -> String {
    format!("{}: {e}", path.display())
}

fn load_schema(path: &Path) -> Res<Arc<Schema>> {
    read_schema(BufReader::new(File::open(path).map_err(|e| err(path, e))?))
        .map_err(|e| err(path, e))
}

fn write_table(table: &Table, path: &Path) -> Res<()> {
    let file = BufWriter::new(File::create(path).map_err(|e| err(path, e))?);
    write_csv(table, file).map_err(|e| err(path, e))
}

/// The dirty table of a seeded QUIS draw of `rows` records.
fn quis_dirty(rows: usize, seed: u64) -> Table {
    generate_quis(&QuisConfig::default().with_rows(rows), &mut StdRng::seed_from_u64(seed)).dirty
}

/// `dq induce --threads 1`'s configuration.
fn induce_config() -> AuditConfig {
    AuditConfig { threads: Some(1).into(), ..AuditConfig::default() }
}

/// Write a workload's inputs into `dir`: `schema.dqs`; `input.csv`
/// with `rows` dirty QUIS records; a model induced from a separate
/// `sample_rows`-record draw of the same generator, saved as
/// `models/quis.dqm` beside `models/quis.dqs` (the layout `dq serve
/// --models` loads); and `bodies.csv`, `pool_rows` headerless records
/// for request bodies. A count of 0 skips that file.
pub fn prepare(
    dir: &Path,
    seed: u64,
    rows: usize,
    sample_rows: usize,
    pool_rows: usize,
) -> Res<Json> {
    fs::create_dir_all(dir).map_err(|e| err(dir, e))?;
    let schema = dq_quis::engine_schema();
    let schema_text = render_schema(&schema).map_err(|e| e.to_string())?;
    fs::write(dir.join("schema.dqs"), &schema_text).map_err(|e| err(dir, e))?;
    let mut out = Json::default();
    if rows > 0 {
        write_table(&quis_dirty(rows, seed), &dir.join("input.csv"))?;
        out.num("input_rows", rows as f64);
    }
    if sample_rows > 0 {
        let models = dir.join("models");
        fs::create_dir_all(&models).map_err(|e| err(&models, e))?;
        let sample = quis_dirty(sample_rows, seed.wrapping_add(1));
        let model = Auditor::new(induce_config()).induce(&sample).map_err(|e| e.to_string())?;
        model.save_to_path(&schema, models.join("quis.dqm")).map_err(|e| e.to_string())?;
        fs::write(models.join("quis.dqs"), &schema_text).map_err(|e| err(&models, e))?;
        out.num("model_rules", model.n_rules() as f64);
    }
    if pool_rows > 0 {
        let mut csv = Vec::new();
        write_csv(&quis_dirty(pool_rows, seed.wrapping_add(2)), &mut csv)
            .map_err(|e| e.to_string())?;
        let header_end = csv.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
        fs::write(dir.join("bodies.csv"), &csv[header_end..]).map_err(|e| err(dir, e))?;
        out.num("pool_rows", pool_rows as f64);
    }
    Ok(out)
}

/// What one library-side run of a stage produced.
pub struct StageRun {
    /// The output files checked against `dq`'s, by name.
    pub outputs: Vec<(&'static str, PathBuf)>,
    /// Work counts, recorded whether or not the run was traced.
    pub counts: Vec<(&'static str, f64)>,
}

/// `dq induce --schema D/schema.dqs --input D/input.csv --model OUT
/// --threads 1`.
pub fn run_train(dir: &Path, out: &Path, t: &Tracer) -> Res<StageRun> {
    let table = t.span("table.csv_load", || -> Res<Table> {
        let schema = load_schema(&dir.join("schema.dqs"))?;
        let path = dir.join("input.csv");
        let file = File::open(&path).map_err(|e| err(&path, e))?;
        read_csv(schema, BufReader::new(file)).map_err(|e| err(&path, e))
    })?;
    let model = t.span("core.induce", || Auditor::new(induce_config()).induce(&table));
    let model = model.map_err(|e| e.to_string())?;
    t.span("core.model_save", || model.save_to_path(table.schema(), out))
        .map_err(|e| e.to_string())?;
    let bytes = fs::metadata(out).map_err(|e| err(out, e))?.len();
    Ok(StageRun {
        outputs: vec![("model", out.to_path_buf())],
        counts: vec![
            ("core.induce.attr_models", model.models.len() as f64),
            ("core.induce.rules", model.n_rules() as f64),
            ("core.model_save.bytes", bytes as f64),
            ("rows", table.n_rows() as f64),
        ],
    })
}

/// `dq detect --schema D/schema.dqs --model D/models/quis.dqm --input
/// D/input.csv --report OUT --threads 1`: the CSV streams through
/// [`CsvChunkReader`] in 4096-row batches, each batch is scanned by
/// [`AuditEngine::scan_batch`], and the report is assembled, rendered
/// and written once at the end.
pub fn run_audit(dir: &Path, out: &Path, t: &Tracer) -> Res<StageRun> {
    let input = dir.join("input.csv");
    let engine = t.span("core.model_load", || -> Res<AuditEngine> {
        let schema = load_schema(&dir.join("schema.dqs"))?;
        let model = dir.join("models").join("quis.dqm");
        AuditEngine::load_from_path(schema, &model).map_err(|e| err(&model, e))
    })?;
    let schema = engine.schema().clone();
    let mut reader = t.span("table.csv_read", || -> Res<_> {
        let file = File::open(&input).map_err(|e| err(&input, e))?;
        CsvChunkReader::new(schema.clone(), BufReader::new(file), DETECT_CHUNK_ROWS)
            .map_err(|e| err(&input, e))
    })?;
    let mut findings = Vec::new();
    let mut confidences = Vec::new();
    let mut rows = 0usize;
    let mut batches = 0usize;
    loop {
        let batch = t.span("table.csv_read", || reader.next_batch()).map_err(|e| err(&input, e))?;
        let Some(batch) = batch else { break };
        batches += 1;
        let (f, c) = t.span("core.scan", || engine.scan_batch(&batch, rows));
        rows += batch.n_rows();
        findings.extend(f);
        confidences.extend(c);
    }
    let (n_findings, report_bytes) = t.span("core.report", || -> Res<(usize, usize)> {
        let report = engine.report_from_parts(findings, confidences);
        let csv = report.to_csv(&schema);
        fs::write(out, csv.as_bytes()).map_err(|e| err(out, e))?;
        Ok((report.findings.len(), csv.len()))
    })?;
    let input_bytes = fs::metadata(&input).map_err(|e| err(&input, e))?.len();
    Ok(StageRun {
        outputs: vec![("report", out.to_path_buf())],
        counts: vec![
            ("table.batches", batches as f64),
            ("table.csv_read.bytes", input_bytes as f64),
            ("core.scan.rows", rows as f64),
            ("core.findings", n_findings as f64),
            ("core.report.bytes", report_bytes as f64),
            ("rows", rows as f64),
        ],
    })
}

/// A [`BatchSource`] wrapper that times each pull from its inner source
/// under `name`.
struct Timed<S> {
    inner: S,
    name: &'static str,
    t: Tracer,
}

impl<S: BatchSource> BatchSource for Timed<S> {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        self.t.span(self.name, || self.inner.next_batch())
    }

    fn rows_emitted(&self) -> usize {
        self.inner.rows_emitted()
    }

    fn row_count_hint(&self) -> Option<usize> {
        self.inner.row_count_hint()
    }
}

/// The clean-CSV tee of the streamed generate path: every generated
/// batch is appended to `clean.csv` on its way into pollution.
struct Tee<S> {
    inner: S,
    writer: CsvWriter<CountingWriter<File>>,
    t: Tracer,
}

impl<S: BatchSource> BatchSource for Tee<S> {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        let batch = self.inner.next_batch()?;
        if let Some(batch) = &batch {
            self.t.span("table.csv_write", || self.writer.write_batch(batch))?;
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

type Stream = PolluteStream<Tee<Timed<GenerateStream>>, StdRng>;

/// Flush every output and commit a journal vouching for it, as the
/// streamed `dq generate` does at each commit boundary.
fn commit(
    ckpt: &mut CheckpointDir,
    journal: &mut Journal,
    stream: &mut Stream,
    dirty: &mut CsvWriter<CountingWriter<File>>,
    log: &mut CountingWriter<File>,
    done: bool,
) -> Res<()> {
    stream.source_mut().writer.flush().map_err(|e| e.to_string())?;
    dirty.flush().map_err(|e| e.to_string())?;
    log.flush().map_err(|e| e.to_string())?;
    journal.cursor_rows = stream.clean_rows_seen() as u64;
    journal.rng = Some(stream.rng().state());
    journal.set_counter("dirty_rows", stream.rows_emitted() as u64);
    journal.set_counter("corrupted_rows", stream.log().n_corrupted_rows() as u64);
    journal.set_output("clean.csv", Watermark::Bytes(stream.source_mut().writer.get_ref().count()));
    journal.set_output("dirty.csv", Watermark::Bytes(dirty.get_ref().count()));
    journal.set_output("pollution-log.csv", Watermark::Bytes(log.count()));
    journal.done = done;
    ckpt.save(journal).map_err(|e| e.to_string())
}

/// `dq generate tdg --out OUT --rows ROWS --rules RULES --seed SEED
/// --stream-chunk-rows 4096 --checkpoint CKPT --threads 1`: rule generation, then the
/// generate → clean tee → pollute stream, the dirty CSV and the
/// pollution log written batch by batch, and a journal commit every 16
/// batches.
pub fn run_generate(
    out: &Path,
    ckpt_dir: &Path,
    rows: usize,
    rules: usize,
    seed: u64,
    t: &Tracer,
) -> Res<StageRun> {
    let mut env = Baseline::new(seed).environment(rules, rows, 1.0);
    env.generator.data.threads = Some(1).into();
    let schema = env.generator.schema.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generator = t.span("tdg.rulegen", || -> Res<GenerateStream> {
        let (rules, _) = generate_rule_set(&schema, &env.generator.rules, &mut rng);
        fs::create_dir_all(out).map_err(|e| err(out, e))?;
        fs::write(out.join("schema.dqs"), render_schema(&schema).map_err(|e| e.to_string())?)
            .map_err(|e| err(out, e))?;
        let rules_text: String = rules.iter().map(|r| r.render(&schema) + "\n").collect();
        fs::write(out.join("rules.txt"), rules_text).map_err(|e| err(out, e))?;
        Ok(GenerateStream::new(schema.clone(), rules, env.generator.data.clone(), &mut rng))
    })?;
    generator = generator.with_batch_rows(TDG_CHUNK_ROWS);
    let create = |name: &str| -> Res<CountingWriter<File>> {
        let path = out.join(name);
        Ok(CountingWriter::new(File::create(&path).map_err(|e| err(&path, e))?, 0))
    };
    let (mut stream, mut dirty, mut log) = t.span("table.csv_write", || -> Res<_> {
        let clean =
            CsvWriter::new(schema.clone(), create("clean.csv")?).map_err(|e| e.to_string())?;
        let dirty =
            CsvWriter::new(schema.clone(), create("dirty.csv")?).map_err(|e| e.to_string())?;
        let mut log = create("pollution-log.csv")?;
        log.write_all(CELLS_CSV_HEADER.as_bytes()).map_err(|e| e.to_string())?;
        let source = Timed { inner: generator, name: "tdg.datagen", t: t.clone() };
        let tee = Tee { inner: source, writer: clean, t: t.clone() };
        let prng = StdRng::from_state(rng.state());
        Ok((PolluteStream::new(tee, env.pollution.clone(), prng), dirty, log))
    })?;
    let (mut ckpt, mut journal) = t.span("job.commit", || -> Res<_> {
        let ckpt = CheckpointDir::create(ckpt_dir).map_err(|e| err(ckpt_dir, e))?;
        Ok((ckpt, Journal::new("generate", seed, schema.fingerprint())))
    })?;
    let mut commits = 0usize;
    let mut commit_now = |stream: &mut Stream, dirty: &mut _, log: &mut _, done| {
        commits += 1;
        t.span("job.commit", || commit(&mut ckpt, &mut journal, stream, dirty, log, done))
    };
    commit_now(&mut stream, &mut dirty, &mut log, false)?;
    let mut cells_rendered = 0usize;
    let mut since_commit = 0usize;
    let mut cells = String::new();
    loop {
        let batch = t.span("pollute", || stream.next_batch()).map_err(|e| e.to_string())?;
        let Some(batch) = batch else { break };
        t.span("table.csv_write", || dirty.write_batch(&batch)).map_err(|e| e.to_string())?;
        t.span("pollute", || {
            cells.clear();
            stream.log().render_cells_csv(&schema, cells_rendered, &mut cells);
            cells_rendered = stream.log().cells.len();
            log.write_all(cells.as_bytes())
        })
        .map_err(|e| e.to_string())?;
        since_commit += 1;
        if since_commit >= TDG_COMMIT_EVERY {
            commit_now(&mut stream, &mut dirty, &mut log, false)?;
            since_commit = 0;
        }
    }
    commit_now(&mut stream, &mut dirty, &mut log, true)?;
    let clean_rows = stream.clean_rows_seen();
    let dirty_rows = stream.rows_emitted();
    let corrupted = stream.log().n_corrupted_rows();
    let written = t.span("table.csv_write", || -> Res<u64> {
        let dirty_bytes = dirty.get_ref().count();
        dirty.finish().map_err(|e| e.to_string())?;
        let (tee, _) = stream.into_parts();
        let clean_bytes = tee.writer.get_ref().count();
        tee.writer.finish().map_err(|e| e.to_string())?;
        Ok(dirty_bytes + clean_bytes)
    })?;
    let names = ["clean.csv", "dirty.csv", "pollution-log.csv", "rules.txt"];
    Ok(StageRun {
        outputs: names.iter().map(|&name| (name, out.join(name))).collect(),
        counts: vec![
            ("tdg.rows", clean_rows as f64),
            ("dirty_rows", dirty_rows as f64),
            ("pollute.corrupted_rows", corrupted as f64),
            ("log_cells", cells_rendered as f64),
            ("table.csv_write.bytes", written as f64),
            ("job.commits", commits as f64),
            ("rows", clean_rows as f64),
        ],
    })
}

/// Run `stage` once untraced; when tracing, alternate untraced and
/// traced runs until `seconds` have passed. `reset` runs untimed before
/// each. Reports the output digests and counts of the last run, the
/// median stage times, the median busy time of each layer over the
/// traced runs, and the median share of a traced run its layers cover.
pub fn measure(
    seconds: f64,
    trace: bool,
    mut reset: impl FnMut() -> Res<()>,
    mut stage: impl FnMut(&Tracer) -> Res<StageRun>,
) -> Res<Json> {
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut coverage = Vec::new();
    let mut layer_busy: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut last = None;
    while untraced.is_empty() || (trace && started.elapsed().as_secs_f64() < seconds) {
        reset()?;
        let t0 = Instant::now();
        let run = stage(&Tracer::disabled())?;
        untraced.push(t0.elapsed().as_secs_f64());
        last = Some(run);
        if trace {
            reset()?;
            let tracer = Tracer::enabled();
            let t0 = Instant::now();
            let run = stage(&tracer)?;
            let secs = t0.elapsed().as_secs_f64();
            traced.push(secs);
            let busy = tracer.busy();
            coverage.push(busy.values().sum::<f64>() / secs);
            for (name, secs) in busy {
                layer_busy.entry(name).or_default().push(secs);
            }
            last = Some(run);
        }
    }
    let run = last.expect("at least one run");
    let mut out = Json::default();
    for (name, path) in &run.outputs {
        out.str(&format!("digest.{name}"), &digest_file(path).map_err(|e| err(path, e))?);
    }
    for (name, value) in &run.counts {
        out.num(name, *value);
    }
    out.num("untraced_s", median(&mut untraced));
    if trace {
        out.num("traced_s", median(&mut traced));
        out.num("coverage", median(&mut coverage));
        for (name, mut values) in layer_busy {
            out.num(&format!("busy.{name}"), median(&mut values));
        }
    }
    Ok(out)
}

/// The median of `values` (the mean of the middle two for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
