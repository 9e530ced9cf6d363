//! `dq detect` — streaming deviation detection against a saved model.
//!
//! The input is a CSV file, audited one of two ways:
//!
//! * locally, it streams through [`dq_table::CsvChunkReader`] in
//!   `--chunk-rows` batches, so a file (much) larger than RAM audits
//!   at O(chunk) memory with a report byte-identical to the in-memory
//!   path. One loop runs: [`dq_core::AuditEngine::scan_batch`] per
//!   batch, then [`dq_core::AuditEngine::report`] over the accumulated
//!   findings and the row count. It holds one batch plus the findings;
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
//!   loop's findings to the binary `findings.bin` sidecar at every
//!   `--checkpoint-every`-batch boundary, so `--resume` continues a
//!   killed audit with a final report byte-identical to an
//!   uninterrupted one.

use crate::args::{CliError, Flags};
use crate::checkpoint::{config_fingerprint, jerr, Job, JobFlags, OutputId};
use crate::io_util::{at, load_schema, say, write_file};
use dq_core::report::{decode_findings, encode_finding, FINDING_RECORD};
use dq_core::{
    corrections_to_csv, propose_corrections, AuditEngine, AuditError, Finding, StructureModel,
};
use dq_job::fnv1a;
use dq_serve::client::{post_with_retry, RetryPolicy, Unavailable};
use dq_table::{BatchSource, CsvChunkReader, QuarantinedRow, TableError};
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
        None => Scan { engine, findings: Vec::new(), rows: 0, checkpoint: None },
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
    batches.skip_data_rows(scan.rows).map_err(|e| format!("{input}: {e}"))?;
    let stream_error = scan.drain(&mut batches)?;
    let quarantined = batches.take_quarantined();
    let secs = t0.elapsed().as_secs_f64();

    let Scan { engine, findings, rows, checkpoint: ckpt } = scan;
    let report = engine.report(findings, rows);
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
/// accumulating the findings and row count [`AuditEngine::report`]
/// turns into the report, and spilling them to the optional checkpoint.
struct Scan {
    engine: AuditEngine,
    findings: Vec<Finding>,
    /// Rows scanned so far: the next batch's global row offset.
    rows: usize,
    checkpoint: Option<Checkpoint>,
}

impl Scan {
    /// Drain `batches` into the accumulated findings. Returns the
    /// stream error, if any: the complete batches before it stay
    /// scanned (and, checkpointed, committed — the resume point is the
    /// failure's doorstep, not the last periodic commit).
    fn drain(&mut self, mut batches: impl BatchSource) -> Result<Option<AuditError>, CliError> {
        loop {
            match batches.next_batch() {
                Ok(Some(batch)) => {
                    let (findings, _) = self.engine.scan_batch(&batch, self.rows);
                    self.rows += batch.n_rows();
                    if let Some(ckpt) = &mut self.checkpoint {
                        ckpt.spill(&findings, self.rows, self.findings.len() + findings.len())?;
                    }
                    self.findings.extend(findings);
                }
                Ok(None) => return Ok(None),
                Err(e) => {
                    if let Some(ckpt) = &mut self.checkpoint {
                        ckpt.commit(self.rows, self.findings.len())?;
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
/// journaling the scan cursor, plus the `findings.bin` sidecar the
/// findings spill to, so a resumed audit's final report is
/// byte-identical to an uninterrupted one.
struct Checkpoint {
    job: Job,
    findings_out: OutputId,
}

impl Checkpoint {
    /// Start the job and build the scan that continues from it: no
    /// findings at row zero, or — with `--resume` — the committed
    /// findings restored from the sidecar at the journaled cursor (a
    /// `confidence.bits` sidecar an older `dq` journaled is not read).
    /// `None` means the journal says the job is already done. Either way
    /// the (cursor-zero or restored-state) journal is committed before
    /// scanning, so a crash anywhere after this can resume.
    fn open(flags: &JobFlags, config: u64, engine: AuditEngine) -> Result<Option<Scan>, CliError> {
        let schema = engine.schema().clone();
        let Some(mut job) = Job::start(Some(flags), "detect", config, schema.fingerprint())? else {
            return Ok(None);
        };
        let cursor = job.resumed().map_or(0, |journal| journal.cursor_rows as usize);
        let findings_path = flags.dir().join("findings.bin");
        let findings_out = job.bytes("findings.bin", &findings_path, b"")?;

        // The sidecar now holds exactly its committed prefix.
        let bytes = std::fs::read(&findings_path).map_err(|e| at(&findings_path, e))?;
        let findings = decode_findings(&bytes, schema.len(), cursor).map_err(|e| {
            jerr(dq_job::JobError::Torn {
                path: findings_path.display().to_string(),
                detail: e.to_string(),
            })
        })?;
        let mut checkpoint = Checkpoint { job, findings_out };
        checkpoint.commit(cursor, findings.len())?;
        Ok(Some(Scan { engine, findings, rows: cursor, checkpoint: Some(checkpoint) }))
    }

    /// Append one scanned batch's findings to the sidecar, committing
    /// every `--checkpoint-every` batches; `rows`/`n_findings` are the
    /// totals including this batch.
    fn spill(
        &mut self,
        findings: &[Finding],
        rows: usize,
        n_findings: usize,
    ) -> Result<(), CliError> {
        let mut records = Vec::with_capacity(findings.len() * FINDING_RECORD);
        for f in findings {
            encode_finding(f, &mut records);
        }
        self.job.write(self.findings_out, &records)?;
        self.job.tick(|journal| scan_state(journal, rows, n_findings))
    }

    /// Commit the sidecar and the journal at `rows` scanned rows.
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
