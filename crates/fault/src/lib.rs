//! Deterministic fault injection for the audit pipeline.
//!
//! The chaos premise: a monitoring-grade audit system is only trusted
//! when it degrades *predictably* — every torn write, stalled socket,
//! or mid-stream IO error must end in either output identical to the
//! fault-free run or a typed error naming the fault's location. Never
//! a panic, a hang, or a silently shorter relation. This crate is the
//! std-only instrument that proves it: seeded, replayable fault
//! schedules and the wrappers that apply them to any pipeline stage.
//!
//! # Pieces
//!
//! * [`FaultPlan`] — a schedule of [`Fault`]s, each anchored at a byte
//!   offset or emitted-batch index. Build one explicitly, or derive it
//!   from a seed with [`FaultPlan::seeded`]; the same seed always
//!   yields the same plan, so a failing chaos run replays exactly.
//! * [`FaultSource`] — wraps any [`BatchSource`](dq_table::BatchSource)
//!   and applies the plan's batch-unit faults: injected
//!   [`TableError`](dq_table::TableError)s, loud mid-stream
//!   truncations, batch re-chunking, latency.
//! * [`FaultRead`] / [`FaultWrite`] — wrap any `Read`/`Write` and
//!   apply the plan's byte-unit faults at exact offsets: injected IO
//!   errors, early EOF, torn final writes (acknowledged but dropped),
//!   short ops, latency.
//!
//! # The fault-plan text format
//!
//! Plans render to a line-oriented text form, so a failing run names
//! the schedule behind it:
//!
//! ```text
//! dq-fault v1
//! error byte 1024
//! truncate batch 3
//! short byte 64 cap 7
//! latency batch 2 ms 15
//! ```
//!
//! A header line comes first. Each following line is one fault: a kind
//! (`error`, `truncate`, `short`, `latency`), a unit (`byte` or
//! `batch`), the anchor offset/index, and the kind's parameter (`cap N`
//! for `short`, `ms N` for `latency`). [`FaultPlan::render`] writes
//! this form, and every injected error message embeds its fault's plan
//! line. A run replays from its seed ([`FaultPlan::seeded`]) or from a
//! plan built with [`FaultPlan::new`].
//!
//! # Fault taxonomy
//!
//! `error` and `truncate` are **disruptive**: the run must end in a
//! typed error (or, for a torn write, the *reader* must detect the
//! tear from framing). `short` and `latency` are **benign**: the run
//! must produce byte-identical output, they only perturb op sizes and
//! timing. [`FaultPlan::is_benign`] classifies a whole plan; the chaos
//! soak in `tests/chaos_soak.rs` asserts exactly this dichotomy across
//! hundreds of seeded schedules.
//!
//! ```
//! use dq_fault::{Fault, FaultKind, FaultPlan, FaultRead, Unit};
//! use std::io::Read;
//!
//! let plan = FaultPlan::new(vec![Fault { kind: FaultKind::Error, unit: Unit::Byte, at: 4 }]);
//! let mut out = Vec::new();
//! let err = FaultRead::new(&b"hello world"[..], &plan).read_to_end(&mut out).unwrap_err();
//! assert_eq!(out, b"hell");
//! assert!(err.to_string().contains("error byte 4"));
//! ```

mod io;
mod plan;
mod source;

pub use io::{FaultRead, FaultWrite};
pub use plan::{Fault, FaultKind, FaultPlan, FaultProfile, Unit};
pub use source::FaultSource;
