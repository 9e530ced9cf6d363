//! [`FaultPlan`]: a seeded, replayable schedule of faults.
//!
//! A plan is an ordered list of [`Fault`]s, each anchored at a stream
//! position in one of two units — **bytes** (for the [`Read`]/[`Write`]
//! adapters in `io`) or **batches** (for the
//! [`FaultSource`](crate::FaultSource) pipeline wrapper). Plans render
//! as plain text, so a failing chaos run names its schedule:
//!
//! ```text
//! dq-fault v1
//! error batch 3
//! truncate byte 1024
//! short byte 64 cap 7
//! latency batch 2 ms 15
//! ```
//!
//! One line per fault; see [`FaultKind`] for the form of each. The
//! chaos harnesses build plans two ways: literally (a regression test
//! pinning a known-bad schedule with [`FaultPlan::new`]) or randomly
//! but reproducibly from a seed ([`FaultPlan::seeded`] — same seed,
//! same schedule, forever).

use std::fmt;

/// The stream position unit a fault is anchored in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Byte offset — consumed by [`FaultRead`](crate::FaultRead) and
    /// [`FaultWrite`](crate::FaultWrite).
    Byte,
    /// Batch index — consumed by [`crate::FaultSource`].
    Batch,
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Unit::Byte => "byte",
            Unit::Batch => "batch",
        })
    }
}

/// What goes wrong at the fault's anchor position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// A hard failure: the wrapped reader/writer/source returns an
    /// injected error once the anchor is reached. Line form: `error`.
    Error,
    /// A torn stream: reads hit early end-of-file, writes silently
    /// drop everything past the anchor (a torn final write), and a
    /// [`FaultSource`](crate::FaultSource) reports a *located* error
    /// after emitting the rows before the anchor — per the
    /// `BatchSource` contract a torn backing store must surface as an
    /// `Err`, never as a silently shorter relation. Line form:
    /// `truncate`.
    Truncate,
    /// A degraded stream: from the anchor on, every read/write moves at
    /// most `cap` bytes (a short read/write), and a batch source
    /// re-chunks batches to at most `cap` rows. Benign by construction:
    /// the bytes/rows that flow are identical, only the op boundaries
    /// change. Line form: `short … cap N`.
    Short(u64),
    /// Injected latency: sleep `ms` milliseconds when the anchor is
    /// crossed, then proceed normally. Benign. Line form:
    /// `latency … ms N`.
    Latency(u64),
}

/// One scheduled fault: a kind, anchored at position `at` of `unit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// What goes wrong.
    pub kind: FaultKind,
    /// The position unit.
    pub unit: Unit,
    /// The anchor position (byte offset or batch index).
    pub at: u64,
}

impl Fault {
    /// `true` when this fault changes the stream's *content* (error or
    /// truncation) rather than just its timing or op boundaries. A run
    /// whose plan has no disruptive fault inside the stream must end
    /// byte-identical to the fault-free run.
    pub fn is_disruptive(&self) -> bool {
        matches!(self.kind, FaultKind::Error | FaultKind::Truncate)
    }
}

/// Renders exactly the plan-line form, e.g. `short byte 64 cap 7` —
/// injected error messages embed this rendering, so a failing run
/// names the fault that caused it.
impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FaultKind::Error => write!(f, "error {} {}", self.unit, self.at),
            FaultKind::Truncate => write!(f, "truncate {} {}", self.unit, self.at),
            FaultKind::Short(cap) => write!(f, "short {} {} cap {cap}", self.unit, self.at),
            FaultKind::Latency(ms) => write!(f, "latency {} {} ms {ms}", self.unit, self.at),
        }
    }
}

/// A replayable fault schedule. See the crate docs for the
/// text format and construction routes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The scheduled faults, in schedule order.
    pub faults: Vec<Fault>,
}

/// Tuning for [`FaultPlan::seeded`]: where faults may land and how
/// hard they may bite.
#[derive(Debug, Clone)]
pub struct FaultProfile {
    /// Largest byte anchor drawn (exclusive). 0 disables byte faults.
    pub max_byte: u64,
    /// Largest batch anchor drawn (exclusive). 0 disables batch faults.
    pub max_batch: u64,
    /// Largest injected latency, milliseconds (inclusive).
    pub max_latency_ms: u64,
    /// Largest `short` cap drawn (inclusive, minimum 1).
    pub max_short_cap: u64,
    /// Most faults per plan (at least 1 is always drawn).
    pub max_faults: usize,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            max_byte: 1 << 16,
            max_batch: 16,
            max_latency_ms: 5,
            max_short_cap: 64,
            max_faults: 3,
        }
    }
}

/// SplitMix64 — a tiny self-contained PRNG so plans replay identically
/// regardless of any other RNG in the process.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`; 0 when the bound is 0.
    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

impl FaultPlan {
    /// The empty plan: a pure pass-through. The zero-fault identity —
    /// wrapping any stage with an empty plan changes nothing, byte for
    /// byte — is pinned by `tests/stream_equivalence.rs`.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan holding exactly the given faults.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// Draw a random schedule from `seed`. Deterministic: the same
    /// seed and profile produce the same plan on every platform, so a
    /// failing chaos seed is a complete reproduction recipe.
    pub fn seeded(seed: u64, profile: &FaultProfile) -> Self {
        let mut rng = SplitMix64(seed);
        let n = 1 + rng.below(profile.max_faults.max(1) as u64) as usize;
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            let unit = match (profile.max_byte, profile.max_batch) {
                (0, 0) => return FaultPlan::none(),
                (0, _) => Unit::Batch,
                (_, 0) => Unit::Byte,
                _ => {
                    if rng.next() % 2 == 0 {
                        Unit::Byte
                    } else {
                        Unit::Batch
                    }
                }
            };
            let at = match unit {
                Unit::Byte => rng.below(profile.max_byte),
                Unit::Batch => rng.below(profile.max_batch),
            };
            let kind = match rng.next() % 4 {
                0 => FaultKind::Error,
                1 => FaultKind::Truncate,
                2 => FaultKind::Short(1 + rng.below(profile.max_short_cap.max(1))),
                _ => FaultKind::Latency(rng.below(profile.max_latency_ms.saturating_add(1))),
            };
            faults.push(Fault { kind, unit, at });
        }
        FaultPlan { faults }
    }

    /// The faults anchored in `unit`, sorted by position (the order
    /// the wrappers will encounter them).
    pub fn in_unit(&self, unit: Unit) -> Vec<Fault> {
        let mut faults: Vec<Fault> =
            self.faults.iter().filter(|f| f.unit == unit).cloned().collect();
        faults.sort_by_key(|f| f.at);
        faults
    }

    /// `true` when the plan holds a disruptive (error/truncate) fault
    /// in `unit` anchored strictly below `len` — i.e. one that a
    /// stream of that length is guaranteed to trip over.
    pub fn disrupts_within(&self, unit: Unit, len: u64) -> bool {
        self.faults.iter().any(|f| f.unit == unit && f.is_disruptive() && f.at < len)
    }

    /// `true` when no fault in the plan can alter stream content —
    /// every fault is benign (`short`/`latency`), in any unit at any
    /// position.
    pub fn is_benign(&self) -> bool {
        self.faults.iter().all(|f| !f.is_disruptive())
    }

    /// Render the plan in its text form (header line + one line per
    /// fault), for failure messages.
    pub fn render(&self) -> String {
        let mut out = String::from("dq-fault v1\n");
        for f in &self.faults {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_writes_the_header_and_one_line_per_fault() {
        let plan = FaultPlan::new(vec![
            Fault { kind: FaultKind::Error, unit: Unit::Batch, at: 3 },
            Fault { kind: FaultKind::Truncate, unit: Unit::Byte, at: 1024 },
            Fault { kind: FaultKind::Short(7), unit: Unit::Byte, at: 64 },
            Fault { kind: FaultKind::Latency(15), unit: Unit::Batch, at: 2 },
        ]);
        assert_eq!(
            plan.render(),
            "dq-fault v1\nerror batch 3\ntruncate byte 1024\nshort byte 64 cap 7\n\
             latency batch 2 ms 15\n"
        );
        assert_eq!(FaultPlan::none().render(), "dq-fault v1\n");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_profile() {
        let profile = FaultProfile::default();
        for seed in 0..200u64 {
            let a = FaultPlan::seeded(seed, &profile);
            let b = FaultPlan::seeded(seed, &profile);
            assert_eq!(a, b, "seed {seed} must replay identically");
            assert!(!a.faults.is_empty() && a.faults.len() <= profile.max_faults);
            for f in &a.faults {
                match f.unit {
                    Unit::Byte => assert!(f.at < profile.max_byte),
                    Unit::Batch => assert!(f.at < profile.max_batch),
                }
                match f.kind {
                    FaultKind::Short(cap) => {
                        assert!(cap >= 1 && cap <= profile.max_short_cap);
                    }
                    FaultKind::Latency(ms) => assert!(ms <= profile.max_latency_ms),
                    _ => {}
                }
            }
            // One rendered line per fault, after the header.
            assert_eq!(a.render().lines().count(), 1 + a.faults.len());
        }
        // Different seeds disagree somewhere (sanity, not cryptography).
        let plans: Vec<_> = (0..50).map(|s| FaultPlan::seeded(s, &profile).render()).collect();
        let distinct: std::collections::HashSet<_> = plans.iter().collect();
        assert!(distinct.len() > 40, "seeds should spread: {} distinct", distinct.len());
    }

    #[test]
    fn classification_helpers() {
        let plan = FaultPlan::new(vec![
            Fault { kind: FaultKind::Short(3), unit: Unit::Batch, at: 0 },
            Fault { kind: FaultKind::Latency(1), unit: Unit::Byte, at: 5 },
        ]);
        assert!(plan.is_benign());
        assert!(!plan.disrupts_within(Unit::Batch, 100));
        let plan = FaultPlan::new(vec![Fault { kind: FaultKind::Error, unit: Unit::Batch, at: 7 }]);
        assert!(!plan.is_benign());
        assert!(plan.disrupts_within(Unit::Batch, 8));
        assert!(!plan.disrupts_within(Unit::Batch, 7), "fault at 7 needs 8 batches to fire");
        assert!(!plan.disrupts_within(Unit::Byte, u64::MAX));
        assert!(FaultPlan::none().is_benign());
    }
}
