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
use dq_table::{CsvWriter, Schema};
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

/// One flat output file, watermarked in bytes.
#[derive(Debug)]
struct Output {
    /// The output's name in the journal.
    name: &'static str,
    path: PathBuf,
    file: CountingWriter<File>,
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
                return Err(CliError::Runtime(format!(
                    "journal has no watermark for output `{name}`; refusing to resume"
                )));
            };
            CountingWriter::new(resume_file(path, mark).map_err(jerr)?, mark)
        } else {
            let mut file = CountingWriter::new(create_file(path)?, 0);
            file.write_all(header).map_err(|e| at(path, e))?;
            file
        };
        self.outputs.push(Output { name, path: path.to_path_buf(), file });
        Ok(OutputId(self.outputs.len() - 1))
    }

    /// Append raw bytes to an output.
    pub fn write(&mut self, id: OutputId, bytes: &[u8]) -> Result<(), CliError> {
        let out = &mut self.outputs[id.0];
        out.file.write_all(bytes).map_err(|e| at(&out.path, e).into())
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
            out.file.flush().map_err(|e| at(&out.path, e))?;
            self.journal.set_output(out.name, Watermark::Bytes(out.file.count()));
        }
        state(&mut self.journal);
        match &mut self.ckpt {
            Some(ckpt) => ckpt.save(&self.journal).map_err(jerr),
            None => Ok(()),
        }
    }

    /// End the job with the closing commit, marked done so a re-resume
    /// is a no-op instead of a re-run.
    pub fn finish(mut self, state: impl FnOnce(&mut Journal)) -> Result<(), CliError> {
        self.journal.done = true;
        self.commit(state)
    }
}

/// The CSV header row of `schema`, as a fresh CSV output starts.
pub fn csv_header(schema: &Arc<Schema>) -> Result<Vec<u8>, CliError> {
    let mut header = Vec::new();
    CsvWriter::new(schema.clone(), &mut header)
        .and_then(CsvWriter::finish)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    Ok(header)
}
