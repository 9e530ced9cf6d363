//! Checkpoint/resume for streaming pipeline jobs.
//!
//! Every stage of this workspace's pipeline — streamed generation
//! (`dq_tdg`), pollution (`dq_pollute`), deviation detection
//! (`dq_core`) — is deterministic and chunk-seeded: its output bytes
//! are a pure function of config, seed, and schema, at every chunking
//! and thread count. This crate adds the one ingredient that turns
//! that determinism into crash recovery: a tiny, atomically committed
//! **journal** recording how far a job got, so a process killed at any
//! point (`kill -9` included) can resume and produce output files
//! **byte-identical** to an uninterrupted run.
//!
//! The pieces:
//!
//! * [`Journal`] — the `dq-job v1` commit record: job kind, config +
//!   schema fingerprints, stream cursor, optional RNG state, named
//!   counters, and per-output committed watermarks, closed by a
//!   checksum line (see [`journal`] for the full grammar);
//! * [`CheckpointDir`] — atomic journal commits (stage + fsync +
//!   rename + directory fsync) plus the `DQ_CRASH_BEFORE_COMMIT` /
//!   `DQ_CRASH_AFTER_COMMITS` knobs the chaos suite uses to die at
//!   exact commit points;
//! * [`resume_file`] / [`CountingWriter`] — reopen a flat output at
//!   its journaled byte watermark (truncating any uncommitted tail)
//!   and keep an exact committed-length count while writing.
//!
//! What this crate deliberately does **not** contain: the per-stage
//! resume logic (seeking a generator or a CSV input, restoring a
//! pollution RNG, merging partial audit reports) lives with each
//! stage — `GenerateStream::seek_to_row`,
//! `CsvChunkReader::skip_data_rows`, `PolluteStream::resume`,
//! `AuditEngine::scan_batch` — and the `dq` CLI wires them to this
//! journal. Failure is always loud and typed
//! ([`JobError`]): a torn journal, a mutated config, or an output
//! shorter than its watermark each refuse to resume rather than risk
//! splicing two different streams into one file.

mod checkpoint;
mod error;
pub mod journal;

pub use checkpoint::{resume_file, CheckpointDir, CountingWriter, JOURNAL};
pub use error::JobError;
pub use journal::{fnv1a, Journal, Watermark};
