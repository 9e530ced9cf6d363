//! The one job driver of the streaming subcommands.
//!
//! `generate tdg`, `pollute` and `detect` each run as a [`Job`]: derive
//! a config fingerprint from the flags that shape the output bytes,
//! decide between a fresh run, a resume and a no-op (the journal says
//! `done`), open every output either fresh or at its journaled
//! watermark, and commit — flush every output, then save a journal
//! vouching for exactly what was flushed — every `--checkpoint-every`
//! batches and once more, marked done, at the end. The stages supply
//! only what differs: their cursor, counters and RNG state (a closure
//! handed to each commit) and how they seek their input.
//!
//! Without `--checkpoint` a job journals nothing — its outputs are
//! still opened, written and flushed through it, so the stage loops
//! carry no checkpoint branches.

use crate::args::{CliError, Flags};
use crate::io_util::{at, create_file, say};
use dq_job::{fnv1a, resume_file, CheckpointDir, CountingWriter, JobError, Journal, Watermark};
use dq_table::{CsvWriter, PagedWriter, Schema, Table};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fingerprint a canonical `key=value` rendering of the flags that
/// shape a job's output bytes. Flags that only change wall-clock time
/// (`--threads`) or presentation (`--top`) are deliberately excluded
/// by the callers: resuming under a different thread count is safe and
/// allowed, resuming under a different seed is not.
pub fn config_fingerprint(parts: &[(&str, String)]) -> u64 {
    let text: String = parts.iter().map(|(key, value)| format!("{key}={value}\n")).collect();
    fnv1a(text.as_bytes())
}

/// Checkpoint-layer failures are runtime errors (exit 1), never usage.
pub fn jerr(e: JobError) -> CliError {
    CliError::Runtime(e.to_string())
}

/// Refuse (as a usage error) to run when an output names the input
/// file — opening the output would truncate the input before it is
/// read. Files compare by identity, not by path text: the same file
/// can hide behind another path, and an output that does not exist yet
/// cannot be the input.
pub fn refuse_overwriting_input(
    input: &Path,
    outputs: &[(&str, &Path)],
    usage: &str,
) -> Result<(), CliError> {
    for (flag, output) in outputs {
        if same_file(input, output) {
            return Err(CliError::Usage(format!(
                "--{flag} {} is the input file; writing it would destroy the input before it \
                 is read\nusage: {usage}",
                output.display()
            )));
        }
    }
    Ok(())
}

fn same_file(a: &Path, b: &Path) -> bool {
    let (Ok(meta_a), Ok(meta_b)) = (std::fs::metadata(a), std::fs::metadata(b)) else {
        return false;
    };
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        meta_a.dev() == meta_b.dev() && meta_a.ino() == meta_b.ino()
    }
    #[cfg(not(unix))]
    {
        let _ = (meta_a, meta_b);
        matches!((a.canonicalize(), b.canonicalize()), (Ok(x), Ok(y)) if x == y)
    }
}

/// The `--checkpoint DIR [--resume] [--checkpoint-every N]` flags.
#[derive(Debug)]
pub struct JobFlags {
    dir: PathBuf,
    resume: bool,
    /// Commit a journal every this many batches.
    every: usize,
}

impl JobFlags {
    /// Parse the checkpoint flags; `None` without `--checkpoint`.
    /// `--resume` or `--checkpoint-every` alone is a usage error.
    pub fn parse(flags: &Flags, usage: &str) -> Result<Option<JobFlags>, CliError> {
        let every = flags.parse_positive_or("checkpoint-every", 16)?;
        let resume = flags.has("resume");
        match flags.get("checkpoint") {
            Some(dir) => Ok(Some(JobFlags { dir: PathBuf::from(dir), resume, every })),
            None if resume || flags.get("checkpoint-every").is_some() => Err(CliError::Usage(
                format!("--resume/--checkpoint-every need --checkpoint DIR\nusage: {usage}"),
            )),
            None => Ok(None),
        }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Handle of one output registered with a [`Job`].
#[derive(Debug, Clone, Copy)]
pub struct OutputId(usize);

/// What an output writes to, and so how it is watermarked.
#[derive(Debug)]
enum Sink {
    /// A flat file, watermarked in bytes.
    Bytes(CountingWriter<File>),
    /// A paged spill, watermarked in sealed pages.
    Pages(PagedWriter),
    /// A paged spill whose manifest [`Job::finish`] committed.
    Spilled(u64),
}

#[derive(Debug)]
struct Output {
    /// The output's name in the journal.
    name: &'static str,
    path: PathBuf,
    sink: Sink,
}

/// One run of a streaming stage: its outputs and, under
/// `--checkpoint`, its journal. See the module docs.
#[derive(Debug)]
pub struct Job {
    ckpt: Option<CheckpointDir>,
    /// The journal being continued, or a fresh one at cursor zero.
    journal: Journal,
    resumed: bool,
    every: usize,
    since_commit: usize,
    outputs: Vec<Output>,
}

impl Job {
    /// Start a `kind` job. Every refusal is loud and typed — a journal
    /// left without `--resume`, `--resume` without a journal, a torn
    /// journal, a mutated config, a journal of another stage — and
    /// none of them ever degrades into a silent restart from zero.
    /// `None` means the journal says the job already finished: nothing
    /// to do, exit 0.
    pub fn start(
        flags: Option<&JobFlags>,
        kind: &str,
        config: u64,
        schema: u64,
    ) -> Result<Option<Job>, CliError> {
        let mut job = Job {
            ckpt: None,
            journal: Journal::new(kind, config, schema),
            resumed: false,
            every: usize::MAX,
            since_commit: 0,
            outputs: Vec::new(),
        };
        let Some(flags) = flags else {
            return Ok(Some(job));
        };
        let ckpt = CheckpointDir::create(&flags.dir).map_err(jerr)?;
        if !flags.resume {
            if ckpt.has_journal() {
                return Err(CliError::Runtime(format!(
                    "{}: a journal already exists; pass --resume to continue the job, or delete \
                     the checkpoint directory to restart it from scratch",
                    ckpt.journal_path().display()
                )));
            }
        } else {
            let journal = match ckpt.load() {
                Ok(journal) => journal,
                Err(JobError::Missing(path)) => {
                    return Err(CliError::Runtime(format!(
                        "--resume: no journal at `{path}` — run without --resume to start the job"
                    )));
                }
                Err(e) => return Err(jerr(e)),
            };
            journal.validate(kind, config, schema).map_err(jerr)?;
            if journal.done {
                say!("checkpoint {}: job is already done — nothing to resume", flags.dir.display());
                return Ok(None);
            }
            job.journal = journal;
            job.resumed = true;
        }
        job.ckpt = Some(ckpt);
        job.every = flags.every;
        Ok(Some(job))
    }

    /// The committed journal this run continues; `None` for a fresh
    /// run.
    pub fn resumed(&self) -> Option<&Journal> {
        self.resumed.then_some(&self.journal)
    }

    fn register(&mut self, name: &'static str, path: &Path, sink: Sink) -> OutputId {
        self.outputs.push(Output { name, path: path.to_path_buf(), sink });
        OutputId(self.outputs.len() - 1)
    }

    /// Open the flat output `name` at `path`: a fresh run creates it
    /// and writes `header`; a resumed run reopens it at its journaled
    /// byte watermark, truncating whatever a crashed incarnation wrote
    /// past it.
    pub fn bytes(
        &mut self,
        name: &'static str,
        path: &Path,
        header: &[u8],
    ) -> Result<OutputId, CliError> {
        let file = if self.resumed {
            let Some(Watermark::Bytes(mark)) = self.journal.output(name) else {
                return Err(missing_watermark(name));
            };
            CountingWriter::new(resume_file(path, mark).map_err(jerr)?, mark)
        } else {
            let mut file = CountingWriter::new(create_file(path)?, 0);
            file.write_all(header).map_err(|e| at(path, e))?;
            file
        };
        Ok(self.register(name, path, Sink::Bytes(file)))
    }

    /// Open the paged spill `name` in `dir`: a fresh run creates it
    /// (clearing any spill already there); a resumed run reopens it
    /// trusting exactly its journaled page count.
    pub fn pages(
        &mut self,
        name: &'static str,
        dir: &Path,
        schema: Arc<Schema>,
        page_rows: usize,
    ) -> Result<OutputId, CliError> {
        let writer = if self.resumed {
            let Some(Watermark::Pages(pages)) = self.journal.output(name) else {
                return Err(missing_watermark(name));
            };
            PagedWriter::resume(dir, schema, page_rows, pages as usize)
        } else {
            PagedWriter::create(dir, schema, page_rows)
        }
        .map_err(|e| at(dir, e))?;
        Ok(self.register(name, dir, Sink::Pages(writer)))
    }

    /// The paged writer behind a [`Job::pages`] output.
    pub fn spill(&self, id: OutputId) -> &PagedWriter {
        match &self.outputs[id.0].sink {
            Sink::Pages(writer) => writer,
            _ => panic!("output `{}` is not an open paged spill", self.outputs[id.0].name),
        }
    }

    /// Append raw bytes to a flat output.
    pub fn write(&mut self, id: OutputId, bytes: &[u8]) -> Result<(), CliError> {
        let out = &mut self.outputs[id.0];
        match &mut out.sink {
            Sink::Bytes(file) => file.write_all(bytes).map_err(|e| at(&out.path, e).into()),
            _ => panic!("output `{}` is not a flat file", out.name),
        }
    }

    /// Append a batch to an output: CSV rows to a flat file, rows to a
    /// paged spill.
    pub fn write_batch(&mut self, id: OutputId, batch: &Table) -> Result<(), CliError> {
        let out = &mut self.outputs[id.0];
        let written = match &mut out.sink {
            Sink::Bytes(file) => {
                let mut csv = CsvWriter::append(batch.schema().clone(), file);
                csv.write_batch(batch).and_then(|()| csv.finish())
            }
            Sink::Pages(writer) => writer.append_batch(batch),
            Sink::Spilled(_) => panic!("output `{}` is already committed", out.name),
        };
        written.map_err(|e| at(&out.path, e).into())
    }

    /// Count one batch; every `--checkpoint-every` batches,
    /// [`commit`](Job::commit).
    pub fn tick(&mut self, state: impl FnOnce(&mut Journal)) -> Result<(), CliError> {
        self.since_commit += 1;
        if self.since_commit >= self.every {
            self.commit(state)?;
        }
        Ok(())
    }

    /// Flush every output, let `state` record the stage's cursor and
    /// counters, and save a journal vouching for exactly what was
    /// flushed — the commit protocol of `dq_job`. Without
    /// `--checkpoint`, only the flush.
    pub fn commit(&mut self, state: impl FnOnce(&mut Journal)) -> Result<(), CliError> {
        self.since_commit = 0;
        for out in &mut self.outputs {
            let mark = match &mut out.sink {
                Sink::Bytes(file) => {
                    file.flush().map_err(|e| at(&out.path, e))?;
                    Watermark::Bytes(file.count())
                }
                Sink::Pages(writer) => Watermark::Pages(writer.n_pages() as u64),
                Sink::Spilled(pages) => Watermark::Pages(*pages),
            };
            self.journal.set_output(out.name, mark);
        }
        state(&mut self.journal);
        match &mut self.ckpt {
            Some(ckpt) => ckpt.save(&self.journal).map_err(jerr),
            None => Ok(()),
        }
    }

    /// End the job: commit every paged spill's manifest, then make the
    /// closing commit, marked done so a re-resume is a no-op instead of
    /// a re-run.
    pub fn finish(mut self, state: impl FnOnce(&mut Journal)) -> Result<(), CliError> {
        for out in &mut self.outputs {
            out.sink = match std::mem::replace(&mut out.sink, Sink::Spilled(0)) {
                Sink::Pages(writer) => {
                    Sink::Spilled(writer.finish().map_err(|e| at(&out.path, e))?.n_pages() as u64)
                }
                sink => sink,
            };
        }
        self.journal.done = true;
        self.commit(state)
    }
}

/// The one loud refusal when a resumed journal lacks the watermark of
/// an output it must reopen.
fn missing_watermark(name: &str) -> CliError {
    CliError::Runtime(format!("journal has no watermark for output `{name}`; refusing to resume"))
}

/// The CSV header row of `schema`, as a fresh CSV output starts.
pub fn csv_header(schema: &Arc<Schema>) -> Result<Vec<u8>, CliError> {
    let mut header = Vec::new();
    CsvWriter::new(schema.clone(), &mut header)
        .and_then(CsvWriter::finish)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    Ok(header)
}
