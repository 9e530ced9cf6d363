//! # dq-exec — a scoped worker pool with deterministic result ordering
//!
//! The audit pipeline is embarrassingly parallel in two places: one
//! classifier is induced *per attribute* (structure induction) and every
//! record is checked *independently* against the structure model
//! (deviation detection). Both demand the same execution contract: fan a
//! fixed list of jobs out over a bounded number of OS threads and get
//! the results back **in input order**, bit-identical to a serial run —
//! the paper's evaluation scores detections against a ground-truth
//! pollution log, so any nondeterminism in result order would corrupt
//! the figures.
//!
//! This crate is std-only (the build environment has no crates.io): a
//! [`WorkerPool`] built on [`std::thread::scope`], where
//! [`WorkerPool::map_indexed`] borrows the caller's data without `Arc`
//! or cloning, steals work item-by-item from an atomic cursor, and
//! writes each result into its input slot. A pool of one thread runs
//! the closure inline on the caller's thread — the exact legacy serial
//! path, spawn-free.
//!
//! ```
//! use dq_exec::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let squares = pool.map_indexed(&[1, 2, 3, 4, 5], |_idx, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]); // input order, always
//! ```
//!
//! Worker panics are captured and surfaced as [`ExecError::WorkerPanic`]
//! by [`WorkerPool::try_map_indexed`] (or re-raised by
//! [`WorkerPool::map_indexed`]) instead of poisoning the scope.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Errors surfaced by pool execution.
#[derive(Debug)]
pub enum ExecError {
    /// A worker closure panicked while processing the item at `index`.
    WorkerPanic {
        /// Input index of the item whose closure panicked (the lowest
        /// one, when several workers panic).
        index: usize,
        /// The panic payload, rendered (`&str`/`String` payloads are
        /// kept verbatim).
        message: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::WorkerPanic { index, message } => {
                write!(f, "worker panicked on item {index}: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The number of hardware threads, with a fallback of 1 when the
/// platform cannot tell.
pub fn available_threads() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolve a `threads: Option<usize>` configuration knob to a concrete
/// worker count.
///
/// `Some(n)` is honoured (clamped to at least 1). `None` consults the
/// `DQ_THREADS` environment variable (a positive integer — the hook CI
/// uses to force the serial path) and falls back to
/// [`available_threads`].
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => match std::env::var("DQ_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => available_threads(),
        },
    }
}

/// The one parallelism knob every subsystem shares.
///
/// Historically each layer carried its own `threads: Option<usize>`
/// field with its own folklore about what `None` meant. `Parallelism`
/// is that knob with the resolution rule attached, applied identically
/// everywhere: **explicit count > `DQ_THREADS` > available cores**
/// (see [`resolve_threads`]). The audit config, the generator config,
/// the eval sweeps and the CLI `--threads` flags all store one of
/// these.
///
/// `Option<usize>` converts losslessly (`Some(n)` → explicit, `None` →
/// auto), so configs built from optional CLI flags spell
/// `flags.parse_positive_opt("threads")?.into()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Parallelism {
    requested: Option<usize>,
}

impl Parallelism {
    /// Defer to `DQ_THREADS`, then the core count (the [`Default`]).
    pub const AUTO: Parallelism = Parallelism { requested: None };

    /// Exactly `n` workers (clamped to at least 1), environment
    /// ignored.
    pub fn explicit(n: usize) -> Self {
        Parallelism { requested: Some(n.max(1)) }
    }

    /// Exactly one worker — the deterministic legacy serial path.
    pub fn serial() -> Self {
        Parallelism::explicit(1)
    }

    /// The explicit request, when one was made.
    pub fn requested(&self) -> Option<usize> {
        self.requested
    }

    /// The concrete worker count under the shared resolution rule.
    pub fn resolve(&self) -> usize {
        resolve_threads(self.requested)
    }

    /// A pool of [`Parallelism::resolve`] workers.
    pub fn pool(&self) -> WorkerPool {
        WorkerPool::new(self.resolve())
    }
}

impl From<Option<usize>> for Parallelism {
    fn from(requested: Option<usize>) -> Self {
        match requested {
            Some(n) => Parallelism::explicit(n),
            None => Parallelism::AUTO,
        }
    }
}

impl From<usize> for Parallelism {
    fn from(n: usize) -> Self {
        Parallelism::explicit(n)
    }
}

/// A fixed-width scoped worker pool.
///
/// The pool owns no threads between calls: each `map` spawns scoped
/// workers, drains the job list through an atomic cursor and joins them
/// before returning, so borrowed inputs need no `'static` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    /// A pool over [`available_threads`] workers (honouring
    /// `DQ_THREADS`).
    fn default() -> Self {
        WorkerPool::new(resolve_threads(None))
    }
}

impl WorkerPool {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool { threads: threads.max(1) }
    }

    /// A pool for a configuration knob — accepts a [`Parallelism`] or
    /// anything that converts into one (`Option<usize>`, `usize`); see
    /// [`resolve_threads`] for the resolution rule.
    pub fn from_config(requested: impl Into<Parallelism>) -> Self {
        requested.into().pool()
    }

    /// The fixed worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, returning results **in input order**
    /// regardless of completion order. `f` receives the input index
    /// alongside the item. On one effective worker the closure runs
    /// unguarded on the caller's thread, so a panic unwinds exactly as
    /// in a plain serial loop (original payload and location); with
    /// more workers a panic is re-raised on the caller's thread with a
    /// rendered message (see [`WorkerPool::try_map_indexed`] for the
    /// error-returning variant).
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads.min(items.len()) <= 1 {
            // The exact legacy serial path, including panic semantics.
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        match self.try_map_indexed(items, f) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`WorkerPool::map_indexed`], but a panicking worker closure
    /// yields `Err(ExecError::WorkerPanic)` instead of unwinding.
    pub fn try_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, ExecError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            // The exact legacy serial path: caller's thread, input order.
            let mut out = Vec::with_capacity(n);
            for (i, item) in items.iter().enumerate() {
                out.push(guarded(i, || f(i, item))?);
            }
            return Ok(out);
        }
        // Slot-per-item storage keeps completion order irrelevant: each
        // worker steals the next index and writes into that index's slot.
        let slots: Vec<Mutex<Option<Result<R, ExecError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = guarded(i, || f(i, &items[i]));
                    *slots[i].lock().expect("result slot is never poisoned") = Some(result);
                });
            }
        });
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            let result = slot
                .into_inner()
                .expect("result slot is never poisoned")
                .expect("every index below the cursor was filled");
            out.push(result?);
        }
        Ok(out)
    }
}

/// Run one job under a panic guard, mapping unwinds to [`ExecError`].
fn guarded<R>(index: usize, job: impl FnOnce() -> R) -> Result<R, ExecError> {
    catch_unwind(AssertUnwindSafe(job)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        ExecError::WorkerPanic { index, message }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_input_order_across_thread_counts() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 4, 9, 200] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.map_indexed(&items, |_, &x| x * 3), expected, "threads={threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items = ["a", "b", "c", "d"];
        let pool = WorkerPool::new(3);
        let tagged = pool.map_indexed(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(tagged, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.map_indexed(&[] as &[u32], |_, &x| x), Vec::<u32>::new());
        assert_eq!(pool.map_indexed(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_becomes_error_with_lowest_index() {
        let items: Vec<usize> = (0..40).collect();
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let err = pool
                .try_map_indexed(&items, |_, &x| {
                    if x % 10 == 3 {
                        panic!("boom at {x}");
                    }
                    x
                })
                .unwrap_err();
            match err {
                ExecError::WorkerPanic { index, message } => {
                    assert_eq!(index, 3, "threads={threads}");
                    assert!(message.contains("boom at 3"), "got: {message}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked on item 2")]
    fn map_indexed_reraises_worker_panics() {
        WorkerPool::new(4).map_indexed(&[0, 1, 2, 3], |_, &x| {
            if x == 2 {
                panic!("kaboom");
            }
            x
        });
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..500).collect();
        let pool = WorkerPool::new(4);
        let out = pool.map_indexed(&items, |_, &x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn serial_map_unwinds_with_the_original_payload() {
        // One effective worker = the exact legacy panic semantics: the
        // typed payload survives, not a rendered string.
        let caught = std::panic::catch_unwind(|| {
            WorkerPool::new(1).map_indexed(&[1u32, 2], |_, &x| {
                if x == 2 {
                    std::panic::panic_any(42usize);
                }
                x
            })
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<usize>(), Some(&42));
    }

    #[test]
    fn knob_resolution() {
        assert_eq!(resolve_threads(Some(4)), 4);
        assert_eq!(resolve_threads(Some(0)), 1, "zero clamps to the serial path");
        assert!(resolve_threads(None) >= 1);
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert_eq!(WorkerPool::new(1).threads(), 1);
        assert_eq!(WorkerPool::new(2).threads(), 2);
        assert_eq!(WorkerPool::from_config(Some(3)).threads(), 3);
    }

    #[test]
    fn parallelism_is_the_shared_knob() {
        // One resolution rule: explicit > DQ_THREADS > cores.
        assert_eq!(Parallelism::explicit(4).resolve(), 4);
        assert_eq!(Parallelism::explicit(0).resolve(), 1, "explicit zero clamps");
        assert_eq!(Parallelism::serial().pool().threads(), 1);
        assert!(Parallelism::AUTO.resolve() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::AUTO);
        // Option/usize conversions round-trip the request.
        assert_eq!(Parallelism::from(Some(3)).requested(), Some(3));
        assert_eq!(Parallelism::from(None).requested(), None);
        assert_eq!(Parallelism::from(5usize).requested(), Some(5));
        assert_eq!(WorkerPool::from_config(Parallelism::explicit(2)).threads(), 2);
        assert_eq!(WorkerPool::from_config(2usize).threads(), 2);
    }
}
