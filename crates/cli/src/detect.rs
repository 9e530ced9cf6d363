//! `dq detect` — streaming deviation detection against a saved model.
//!
//! The input is a CSV file, audited one of two ways:
//!
//! * locally, it streams through [`dq_table::CsvChunkReader`] in
//!   `--chunk-rows` batches, so a file (much) larger than RAM audits
//!   at O(chunk) memory with a report byte-identical to the in-memory
//!   path. One loop runs: [`dq_core::AuditEngine::scan_batch`] per
//!   batch, then [`dq_core::AuditEngine::report_from_parts`] over the
//!   accumulated parts;
//! * `--server ADDR --model-name NAME` skips the local model entirely
//!   and posts the CSV to a running `dq serve` daemon's
//!   `/audit/{name}/stream` endpoint via
//!   [`dq_serve::client::post_with_retry`] — queue-full `503`s back
//!   off and retry (honoring `Retry-After`), a *draining* server fails
//!   immediately with a distinct error, because it will not come back.
//!
//! A mid-stream failure (a bad CSV cell three million rows in) does
//! not discard the scan: the report and corrections files are written
//! over every complete chunk before the failure, the summary marks the
//! scan partial, and the error — carrying the table layer's 1-based
//! line number — goes to stderr with exit code 1.
//!
//! Two robustness modes extend that:
//!
//! * `--quarantine FILE` routes malformed CSV rows to a dead-letter
//!   file (1-based line number, the typed parse error, the raw line)
//!   instead of aborting the scan; `--max-bad-rows N` bounds the
//!   budget, and overflowing it exits with the distinct code 3;
//! * `--checkpoint DIR` journals the scan cursor and spills the
//!   loop's findings + per-row confidences to binary sidecars at every
//!   `--checkpoint-every`-batch boundary, so `--resume` continues a
//!   killed audit with a final report byte-identical to an
//!   uninterrupted one.

use crate::args::{CliError, Flags};
use crate::checkpoint::{config_fingerprint, jerr, Job, JobFlags, OutputId};
use crate::io_util::{at, load_schema, say, write_file};
use dq_core::{
    corrections_to_csv, propose_corrections, AuditEngine, AuditError, Finding, StructureModel,
};
use dq_job::fnv1a;
use dq_serve::client::{post_with_retry, RetryPolicy, Unavailable};
use dq_table::{BatchSource, CsvChunkReader, QuarantinedRow, TableError, Value};
use std::fs::File;
use std::io::BufReader;
use std::net::ToSocketAddrs;
use std::path::Path;
use std::time::Instant;

pub const USAGE: &str = "dq detect --schema F.dqs --model m.dqm --input data.csv \
[--report report.csv] [--corrections c.csv] [--chunk-rows N] [--threads N] [--top N] \
[--quarantine bad.tsv --max-bad-rows N] [--checkpoint DIR] [--resume] [--checkpoint-every N]
       dq detect --server HOST:PORT --model-name NAME --input data.csv [--report report.csv] \
[--retries N]";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(
        args,
        &[
            "schema",
            "model",
            "input",
            "report",
            "corrections",
            "chunk-rows",
            "threads",
            "top",
            "server",
            "model-name",
            "retries",
            "quarantine",
            "max-bad-rows",
            "checkpoint",
            "checkpoint-every",
        ],
        &["resume"],
    )?;
    if let Some(server) = flags.get("server") {
        return remote(&flags, server);
    }
    let schema = load_schema(flags.require("schema")?)?;
    let model_path = flags.require("model")?;
    let model = StructureModel::load_from_path(&schema, model_path)
        .map_err(|e| format!("{model_path}: {e}"))?;
    let input = flags.require("input")?;
    let chunk_rows: usize = flags.parse_positive_or("chunk-rows", 4096)?;
    let threads = flags.parse_positive_opt("threads")?;
    let top: usize = flags.parse_or("top", 10)?;
    let quarantine = flags.get("quarantine").map(|p| Path::new(p).to_path_buf());
    let max_bad_rows: Option<usize> = flags.parse_opt("max-bad-rows")?;
    if max_bad_rows.is_some() && quarantine.is_none() {
        return Err(CliError::Usage(format!(
            "--max-bad-rows bounds the --quarantine budget; pass both\nusage: {USAGE}"
        )));
    }
    let checkpoint = JobFlags::parse(&flags, USAGE)?;
    if quarantine.is_some() && checkpoint.is_some() {
        return Err(CliError::Usage(format!(
            "--quarantine and --checkpoint are mutually exclusive: a checkpointed scan must \
             be deterministic in its row numbering, a quarantining scan deliberately is not\n\
             usage: {USAGE}"
        )));
    }

    let engine = AuditEngine::new(model, schema.clone()).with_threads(threads);
    let mut scan = match &checkpoint {
        None => Scan { engine, findings: Vec::new(), confidences: Vec::new(), checkpoint: None },
        Some(job_flags) => {
            let config = detect_fingerprint(model_path, chunk_rows)?;
            match Checkpoint::open(job_flags, config, engine)? {
                Some(scan) => scan,
                None => return Ok(()),
            }
        }
    };

    let t0 = Instant::now();
    // A resumed scan seeks past the rows its checkpoint already holds.
    let file = File::open(input).map_err(|e| format!("{input}: {e}"))?;
    let mut batches = CsvChunkReader::new(schema.clone(), BufReader::new(file), chunk_rows)
        .map_err(|e| format!("{input}: {e}"))?;
    if quarantine.is_some() {
        batches = batches.with_quarantine(max_bad_rows.unwrap_or(usize::MAX));
    }
    batches.skip_data_rows(scan.confidences.len()).map_err(|e| format!("{input}: {e}"))?;
    let stream_error = scan.drain(&mut batches)?;
    let quarantined = batches.take_quarantined();
    let secs = t0.elapsed().as_secs_f64();

    // The accumulated parts move into the report: at a million rows a
    // copy of the confidences alone would be megabytes of peak memory.
    let Scan { engine, findings, confidences, checkpoint: ckpt } = scan;
    let report = engine.report_from_parts(findings, confidences);
    // Flush what was audited even when the stream failed mid-way: a
    // partial report over millions of clean rows beats an empty file.
    if let Some(path) = flags.get("report") {
        write_file(Path::new(path), &report.to_csv(&schema))?;
    }
    if let Some(path) = flags.get("corrections") {
        let corrections = propose_corrections(&report);
        write_file(Path::new(path), &corrections_to_csv(&corrections, &schema))?;
    }
    // The dead-letter file is written even when the budget overflowed:
    // the rows captured up to the budget are exactly the evidence the
    // operator needs to decide what to do next.
    if let Some(path) = &quarantine {
        write_file(path, &render_dead_letters(&quarantined))?;
    }
    if let (Some(ckpt), None) = (ckpt, &stream_error) {
        ckpt.finish(report.n_rows(), report.findings.len())?;
    }

    say!(
        "scanned {} rows in {secs:.2}s ({chunk_rows} per chunk{}): {} suspicious rows, \
         {} findings at min confidence {}",
        report.n_rows(),
        if stream_error.is_some() { ", PARTIAL — the stream failed" } else { "" },
        report.n_suspicious(),
        report.findings.len(),
        report.min_confidence,
    );
    if let Some(path) = &quarantine {
        say!("quarantined {} malformed row(s) to {}", quarantined.len(), path.display());
    }
    if top > 0 && !report.findings.is_empty() {
        say!("top findings:");
        say!("{}", report.render_top(&schema, top));
    }
    match stream_error {
        Some(AuditError::Table(TableError::QuarantineBudget { max_bad_rows, line })) => {
            Err(CliError::Budget(format!(
                "{input}: more than {max_bad_rows} malformed rows (line {line} overflowed the \
                 budget); the report covers the {} rows scanned before the overflow and the \
                 dead-letter file holds the first {} malformed rows",
                report.n_rows(),
                quarantined.len(),
            )))
        }
        Some(e) => {
            let resume_hint = match &checkpoint {
                Some(job_flags) => {
                    format!("; the checkpoint in {} resumes from there", job_flags.dir().display())
                }
                None => String::new(),
            };
            Err(CliError::Runtime(format!(
                "{input}: {e} (the report covers the {} complete rows before the \
                 failure{resume_hint})",
                report.n_rows()
            )))
        }
        None => Ok(()),
    }
}

/// The one local scan loop: [`AuditEngine::scan_batch`] per batch,
/// accumulating the parts [`AuditEngine::report_from_parts`] turns
/// into the report, and spilling them to the optional checkpoint.
struct Scan {
    engine: AuditEngine,
    findings: Vec<Finding>,
    confidences: Vec<f64>,
    checkpoint: Option<Checkpoint>,
}

impl Scan {
    /// Drain `batches` into the accumulated parts. Returns the stream
    /// error, if any: the complete batches before it stay scanned (and,
    /// checkpointed, committed — the resume point is the failure's
    /// doorstep, not the last periodic commit).
    fn drain(&mut self, mut batches: impl BatchSource) -> Result<Option<AuditError>, CliError> {
        loop {
            match batches.next_batch() {
                Ok(Some(batch)) => {
                    // One confidence per scanned row: the count so far
                    // is the batch's global row offset.
                    let (findings, confidences) =
                        self.engine.scan_batch(&batch, self.confidences.len());
                    if let Some(ckpt) = &mut self.checkpoint {
                        ckpt.spill(
                            &findings,
                            &confidences,
                            self.confidences.len() + confidences.len(),
                            self.findings.len() + findings.len(),
                        )?;
                    }
                    self.findings.extend(findings);
                    self.confidences.extend(confidences);
                }
                Ok(None) => return Ok(None),
                Err(e) => {
                    if let Some(ckpt) = &mut self.checkpoint {
                        ckpt.commit(self.confidences.len(), self.findings.len())?;
                    }
                    return Ok(Some(e.into()));
                }
            }
        }
    }
}

/// Render quarantined rows as a tab-separated dead-letter file:
/// `line<TAB>error<TAB>raw row`, one per malformed row.
fn render_dead_letters(rows: &[QuarantinedRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&format!("{}\t{}\t{}\n", row.line, row.error, row.raw));
    }
    out
}

// ---------------------------------------------------------------------------
// Checkpointed detection
// ---------------------------------------------------------------------------

/// Byte length of one encoded finding record in `findings.bin`.
const FINDING_RECORD: usize = 50;

fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => {
            out.push(0);
            out.extend_from_slice(&0u64.to_le_bytes());
        }
        Value::Nominal(code) => {
            out.push(1);
            out.extend_from_slice(&u64::from(*code).to_le_bytes());
        }
        Value::Number(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Date(d) => {
            out.push(3);
            out.extend_from_slice(&(*d as u64).to_le_bytes());
        }
    }
}

fn decode_value(tag: u8, payload: u64) -> Result<Value, String> {
    Ok(match tag {
        0 => Value::Null,
        1 => Value::Nominal(u32::try_from(payload).map_err(|_| "nominal code overflow")?),
        2 => Value::Number(f64::from_bits(payload)),
        3 => Value::Date(payload as i64),
        other => return Err(format!("unknown value tag {other}")),
    })
}

/// Encode one finding as a fixed 50-byte record: row, attr, observed,
/// proposed, confidence bits, support bits (all little-endian; values
/// as tag byte + 8-byte payload).
fn encode_finding(f: &Finding, out: &mut Vec<u8>) {
    out.extend_from_slice(&(f.row as u64).to_le_bytes());
    out.extend_from_slice(&(f.attr as u64).to_le_bytes());
    encode_value(&f.observed, out);
    encode_value(&f.proposed, out);
    out.extend_from_slice(&f.confidence.to_bits().to_le_bytes());
    out.extend_from_slice(&f.support.to_bits().to_le_bytes());
}

/// Decode a committed `findings.bin` prefix. Every record must name an
/// attribute of the `n_attrs`-attribute schema and a row below the
/// journaled `cursor` — anything else is corruption, never a finding.
fn decode_findings(bytes: &[u8], n_attrs: usize, cursor: usize) -> Result<Vec<Finding>, String> {
    if bytes.len() % FINDING_RECORD != 0 {
        return Err(format!(
            "{} bytes is not a whole number of {FINDING_RECORD}-byte records",
            bytes.len()
        ));
    }
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let mut findings = Vec::with_capacity(bytes.len() / FINDING_RECORD);
    for record in 0..bytes.len() / FINDING_RECORD {
        let base = record * FINDING_RECORD;
        let (row, attr) = (u64_at(base), u64_at(base + 8));
        if attr >= n_attrs as u64 {
            return Err(format!(
                "finding record {record} names attribute {attr} of a {n_attrs}-attribute schema"
            ));
        }
        if row >= cursor as u64 {
            return Err(format!(
                "finding record {record} names row {row}, past the {cursor} journaled rows"
            ));
        }
        findings.push(Finding {
            row: row as usize,
            attr: attr as usize,
            observed: decode_value(bytes[base + 16], u64_at(base + 17))?,
            proposed: decode_value(bytes[base + 25], u64_at(base + 26))?,
            confidence: f64::from_bits(u64_at(base + 34)),
            support: f64::from_bits(u64_at(base + 42)),
        });
    }
    Ok(findings)
}

/// The config fingerprint of a checkpointed detect. The model bytes
/// ARE the config: a model retrained between incarnations changes
/// every confidence, so its content hash (not its path) anchors the
/// fingerprint. `--threads`/`--top` are excluded — they never change
/// the scan's bytes.
fn detect_fingerprint(model_path: &str, chunk_rows: usize) -> Result<u64, CliError> {
    let model_bytes = std::fs::read(model_path).map_err(|e| format!("{model_path}: {e}"))?;
    Ok(config_fingerprint(&[
        ("stage", "detect".to_string()),
        ("model", format!("{:016x}", fnv1a(&model_bytes))),
        ("chunk-rows", chunk_rows.to_string()),
    ]))
}

/// `dq detect --checkpoint` state riding on the scan loop: a [`Job`]
/// journaling the scan cursor, plus the `findings.bin` +
/// `confidence.bits` sidecars the accumulated parts spill to, so a
/// resumed audit's final report is byte-identical to an uninterrupted
/// one.
struct Checkpoint {
    job: Job,
    findings_out: OutputId,
    confidence_out: OutputId,
    record_buf: Vec<u8>,
}

impl Checkpoint {
    /// Start the job and build the scan that continues from it: empty
    /// parts, or — with `--resume` — the committed parts restored from
    /// the sidecars. `None` means the journal says the job is already
    /// done. Either way the (cursor-zero or restored-state) journal is
    /// committed before scanning, so a crash anywhere after this can
    /// resume.
    fn open(flags: &JobFlags, config: u64, engine: AuditEngine) -> Result<Option<Scan>, CliError> {
        let schema = engine.schema().clone();
        let Some(mut job) = Job::start(Some(flags), "detect", config, schema.fingerprint())? else {
            return Ok(None);
        };
        let cursor = job.resumed().map_or(0, |journal| journal.cursor_rows as usize);
        let findings_path = flags.dir().join("findings.bin");
        let confidence_path = flags.dir().join("confidence.bits");
        let findings_out = job.bytes("findings.bin", &findings_path, b"")?;
        let confidence_out = job.bytes("confidence.bits", &confidence_path, b"")?;

        // The sidecars now hold exactly their committed prefixes.
        let read = |path: &Path| std::fs::read(path).map_err(|e| CliError::from(at(path, e)));
        let confidence_bytes = read(&confidence_path)?;
        if confidence_bytes.len() != cursor * 8 {
            return Err(CliError::Runtime(format!(
                "confidence.bits watermark ({} bytes) disagrees with the cursor ({cursor} rows); \
                 the checkpoint is inconsistent — refusing to resume",
                confidence_bytes.len()
            )));
        }
        let findings =
            decode_findings(&read(&findings_path)?, schema.len(), cursor).map_err(|detail| {
                jerr(dq_job::JobError::Torn { path: findings_path.display().to_string(), detail })
            })?;
        let confidences = confidence_bytes
            .chunks_exact(8)
            .map(|chunk| f64::from_bits(u64::from_le_bytes(chunk.try_into().expect("8 bytes"))))
            .collect::<Vec<f64>>();
        let mut checkpoint =
            Checkpoint { job, findings_out, confidence_out, record_buf: Vec::new() };
        checkpoint.commit(cursor, findings.len())?;
        Ok(Some(Scan { engine, findings, confidences, checkpoint: Some(checkpoint) }))
    }

    /// Append one scanned batch's parts to the sidecars, committing
    /// every `--checkpoint-every` batches; `rows`/`n_findings` are the
    /// totals including this batch.
    fn spill(
        &mut self,
        findings: &[Finding],
        confidences: &[f64],
        rows: usize,
        n_findings: usize,
    ) -> Result<(), CliError> {
        self.record_buf.clear();
        for f in findings {
            encode_finding(f, &mut self.record_buf);
        }
        self.job.write(self.findings_out, &self.record_buf)?;
        self.record_buf.clear();
        for c in confidences {
            self.record_buf.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        self.job.write(self.confidence_out, &self.record_buf)?;
        self.job.tick(|journal| scan_state(journal, rows, n_findings))
    }

    /// Commit the sidecars and the journal at `rows` scanned rows.
    fn commit(&mut self, rows: usize, n_findings: usize) -> Result<(), CliError> {
        self.job.commit(|journal| scan_state(journal, rows, n_findings))
    }

    /// The closing commit of a fully scanned input.
    fn finish(self, rows: usize, n_findings: usize) -> Result<(), CliError> {
        self.job.finish(|journal| scan_state(journal, rows, n_findings))
    }
}

/// The scan state a detect journal records.
fn scan_state(journal: &mut dq_job::Journal, rows: usize, n_findings: usize) {
    journal.cursor_rows = rows as u64;
    journal.set_counter("findings", n_findings as u64);
}

/// The client mode: ship the CSV to a `dq serve` daemon and let its
/// resident model audit it. Backpressure is handled here so scripts
/// don't have to: queue-full `503`s retry with bounded backoff, a
/// draining server fails fast with its own message.
fn remote(flags: &Flags, server: &str) -> Result<(), CliError> {
    let name = flags.require("model-name")?;
    let input = flags.require("input")?;
    let retries: u32 = flags.parse_or("retries", RetryPolicy::default().max_attempts)?;
    for local in [
        "schema",
        "model",
        "corrections",
        "chunk-rows",
        "threads",
        "top",
        "quarantine",
        "max-bad-rows",
        "checkpoint",
        "checkpoint-every",
    ] {
        if flags.get(local).is_some() {
            return Err(CliError::Usage(format!(
                "--{local} is a local-audit flag; with --server the daemon's resident model \
                 does the scan\nusage: {USAGE}"
            )));
        }
    }
    if flags.has("resume") {
        return Err(CliError::Usage(format!(
            "--resume is a local-audit flag; with --server the daemon's resident model does \
             the scan\nusage: {USAGE}"
        )));
    }
    let addr = server
        .to_socket_addrs()
        .map_err(|e| format!("{server}: {e}"))?
        .next()
        .ok_or_else(|| format!("{server}: resolved to no address"))?;
    let body = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;

    let policy = RetryPolicy { max_attempts: retries.max(1), ..RetryPolicy::default() };
    let t0 = Instant::now();
    let response = post_with_retry(addr, &format!("/audit/{name}/stream"), &[], &body, &policy)
        .map_err(|e| format!("{server}: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();

    match response.unavailable() {
        Some(Unavailable::Draining) => {
            return Err(CliError::Runtime(format!(
                "{server}: server is draining and refuses new audits — it is shutting down; \
                 point --server at another instance"
            )));
        }
        Some(Unavailable::QueueFull { retry_after }) => {
            let advice = match retry_after {
                Some(secs) => format!(" (server advises Retry-After: {secs}s)"),
                None => String::new(),
            };
            return Err(CliError::Runtime(format!(
                "{server}: connection queue full after {retries} attempt(s){advice} — \
                 the server is overloaded, retry later or raise --retries"
            )));
        }
        None => {}
    }
    if response.status != 200 {
        return Err(CliError::Runtime(format!(
            "{server}: HTTP {} — {}",
            response.status,
            response.body_str().trim_end()
        )));
    }

    let report_csv = response.body_str();
    match flags.get("report") {
        Some(path) => write_file(Path::new(path), report_csv)?,
        None => say!("{}", report_csv.trim_end()),
    }
    // Data rows in the report body (header excluded) are findings.
    let findings = report_csv.lines().skip(1).filter(|l| !l.is_empty()).count();
    say!("audited `{name}` on {server} in {secs:.2}s: {findings} finding(s)");
    Ok(())
}
