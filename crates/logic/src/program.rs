//! Compiled rule programs — the flat, recursion-free evaluation layer.
//!
//! [`eval_formula`](crate::eval::eval_formula) walks the boxed
//! [`Formula`] tree and re-discovers the connective structure on every
//! record. That is fine for one-off checks, but the test data
//! generator's repair loop, the polluter's violation counters and the
//! rule-violation scans all evaluate the *same* rule set against
//! millions of records. This module compiles a formula **once** into a
//! contiguous arena of typed atom ops wired as a short-circuit branch
//! program, so per-record evaluation is a tight loop over a slice:
//!
//! * every op is one `AtomOp` with pre-resolved operands (nominal
//!   codes and widened numeric thresholds split at compile time, so no
//!   `Value` matching on constants at run time);
//! * the connective structure is encoded in each op's `on_true` /
//!   `on_false` jump targets — evaluation is `pc = if hit { on_true }
//!   else { on_false }` until an accept/reject sentinel, which is
//!   exactly the short-circuit order of `Iterator::all`/`any`;
//! * there is no recursion, no stack and no `Vec<Formula>` pointer
//!   chasing at evaluation time.
//!
//! [`CompiledRuleSet`] fuses each rule's premise and consequent into
//! one violation program, checked behind a guard conjunct, and adds a
//! dirty-attribute → affected-rule inverted index so incremental
//! consumers (the TDG repair loop) re-evaluate only the rules that can
//! have changed.
//!
//! Semantics are pinned to the interpreter: for every formula `f` and
//! record `r`, `compile(f).eval(r) == eval_formula(&f, r)` — including
//! NULL handling, out-of-label nominal codes and mixed nominal/numeric
//! comparisons (the property suite in `tests/` re-checks this on random
//! formulae).

use crate::atom::Atom;
use crate::formula::{Formula, Rule, RuleSet};
use dq_table::{AttrIdx, Table, Value};
use std::cmp::Ordering;

/// Jump target: accept (formula holds).
const ACCEPT: u32 = u32::MAX;
/// Jump target: reject (formula does not hold).
const REJECT: u32 = u32::MAX - 1;

/// One atom with pre-resolved operands.
///
/// Constants are split by kind at compile time so the evaluator never
/// matches on a constant `Value`: `EqNominal` compares codes,
/// `EqNumeric` compares widened numbers (dates widen to day numbers,
/// exactly like [`Value::as_numeric`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum AtomOp {
    /// `A = c` for a nominal constant.
    EqNominal { attr: AttrIdx, code: u32 },
    /// `A ≠ c` for a nominal constant.
    NeqNominal { attr: AttrIdx, code: u32 },
    /// `A = x` for a numeric/date constant (widened coordinates).
    EqNumeric { attr: AttrIdx, x: f64 },
    /// `A ≠ x` for a numeric/date constant.
    NeqNumeric { attr: AttrIdx, x: f64 },
    /// `N < x`.
    LessConst { attr: AttrIdx, x: f64 },
    /// `N > x`.
    GreaterConst { attr: AttrIdx, x: f64 },
    /// `A isnull`.
    IsNull { attr: AttrIdx },
    /// `A isnotnull`.
    IsNotNull { attr: AttrIdx },
    /// `A = B`.
    EqAttr { left: AttrIdx, right: AttrIdx },
    /// `A ≠ B`.
    NeqAttr { left: AttrIdx, right: AttrIdx },
    /// `A < B`.
    LessAttr { left: AttrIdx, right: AttrIdx },
    /// `A > B`.
    GreaterAttr { left: AttrIdx, right: AttrIdx },
}

impl AtomOp {
    fn compile(atom: &Atom) -> AtomOp {
        match atom {
            Atom::EqConst { attr, value } => match value {
                Value::Nominal(code) => AtomOp::EqNominal { attr: *attr, code: *code },
                other => match other.as_numeric() {
                    Some(x) => AtomOp::EqNumeric { attr: *attr, x },
                    // `A = NULL` is rejected by validation; if it ever
                    // reaches compilation it holds for no record, which
                    // `sql_eq`'s NULL semantics encode as never-equal.
                    None => AtomOp::EqNumeric { attr: *attr, x: f64::NAN },
                },
            },
            Atom::NeqConst { attr, value } => match value {
                Value::Nominal(code) => AtomOp::NeqNominal { attr: *attr, code: *code },
                other => match other.as_numeric() {
                    Some(x) => AtomOp::NeqNumeric { attr: *attr, x },
                    None => AtomOp::NeqNumeric { attr: *attr, x: f64::NAN },
                },
            },
            Atom::LessConst { attr, value } => AtomOp::LessConst { attr: *attr, x: *value },
            Atom::GreaterConst { attr, value } => AtomOp::GreaterConst { attr: *attr, x: *value },
            Atom::IsNull { attr } => AtomOp::IsNull { attr: *attr },
            Atom::IsNotNull { attr } => AtomOp::IsNotNull { attr: *attr },
            Atom::EqAttr { left, right } => AtomOp::EqAttr { left: *left, right: *right },
            Atom::NeqAttr { left, right } => AtomOp::NeqAttr { left: *left, right: *right },
            Atom::LessAttr { left, right } => AtomOp::LessAttr { left: *left, right: *right },
            Atom::GreaterAttr { left, right } => AtomOp::GreaterAttr { left: *left, right: *right },
        }
    }

    /// Truth value on a record — must agree with
    /// [`eval_atom`](crate::eval::eval_atom) on every input.
    #[inline]
    fn eval(&self, record: &[Value]) -> bool {
        match *self {
            AtomOp::EqNominal { attr, code } => {
                matches!(record[attr], Value::Nominal(c) if c == code)
            }
            AtomOp::NeqNominal { attr, code } => match record[attr] {
                Value::Null => false,
                Value::Nominal(c) => c != code,
                // A non-NULL numeric cell is SQL-unequal to a nominal
                // constant (`sql_eq` answers `Some(false)`).
                Value::Number(_) | Value::Date(_) => true,
            },
            AtomOp::EqNumeric { attr, x } => match record[attr] {
                Value::Number(y) => y == x,
                Value::Date(d) => d as f64 == x,
                Value::Null | Value::Nominal(_) => false,
            },
            AtomOp::NeqNumeric { attr, x } => match record[attr] {
                Value::Null => false,
                Value::Number(y) => y != x,
                Value::Date(d) => d as f64 != x,
                // Nominal vs numeric constant: SQL-unequal.
                Value::Nominal(_) => true,
            },
            AtomOp::LessConst { attr, x } => match record[attr] {
                Value::Number(y) => y < x,
                Value::Date(d) => (d as f64) < x,
                Value::Null | Value::Nominal(_) => false,
            },
            AtomOp::GreaterConst { attr, x } => match record[attr] {
                Value::Number(y) => y > x,
                Value::Date(d) => (d as f64) > x,
                Value::Null | Value::Nominal(_) => false,
            },
            AtomOp::IsNull { attr } => record[attr].is_null(),
            AtomOp::IsNotNull { attr } => !record[attr].is_null(),
            AtomOp::EqAttr { left, right } => record[left].sql_eq(&record[right]) == Some(true),
            AtomOp::NeqAttr { left, right } => record[left].sql_eq(&record[right]) == Some(false),
            AtomOp::LessAttr { left, right } => {
                record[left].sql_cmp(&record[right]) == Some(Ordering::Less)
            }
            AtomOp::GreaterAttr { left, right } => {
                record[left].sql_cmp(&record[right]) == Some(Ordering::Greater)
            }
        }
    }
}

impl AtomOp {
    /// Truth value on a [`RecordView`] — agrees with [`AtomOp::eval`]
    /// on every *kind-correct* record (cells match their attribute's
    /// schema kind, the well-formedness every validated rule set and
    /// generated record guarantees).
    #[inline(always)]
    fn eval_view(&self, codes: &[u32], nums: &[f64]) -> bool {
        match *self {
            AtomOp::EqNominal { attr, code } => codes[attr] == code,
            AtomOp::NeqNominal { attr, code } => {
                if codes[attr] != NONE_CODE {
                    codes[attr] != code
                } else {
                    // A non-null numeric cell is SQL-unequal to a
                    // nominal constant; NULL is not.
                    !nums[attr].is_nan()
                }
            }
            AtomOp::EqNumeric { attr, x } => nums[attr] == x,
            AtomOp::NeqNumeric { attr, x } => {
                if nums[attr].is_nan() {
                    codes[attr] != NONE_CODE
                } else {
                    nums[attr] != x
                }
            }
            AtomOp::LessConst { attr, x } => nums[attr] < x,
            AtomOp::GreaterConst { attr, x } => nums[attr] > x,
            AtomOp::IsNull { attr } => codes[attr] == NONE_CODE && nums[attr].is_nan(),
            AtomOp::IsNotNull { attr } => codes[attr] != NONE_CODE || !nums[attr].is_nan(),
            AtomOp::EqAttr { left, right } => {
                (codes[left] != NONE_CODE && codes[left] == codes[right])
                    || nums[left] == nums[right]
            }
            AtomOp::NeqAttr { left, right } => {
                let nonnull_l = codes[left] != NONE_CODE || !nums[left].is_nan();
                let nonnull_r = codes[right] != NONE_CODE || !nums[right].is_nan();
                nonnull_l
                    && nonnull_r
                    && !((codes[left] != NONE_CODE && codes[left] == codes[right])
                        || nums[left] == nums[right])
            }
            // Ordering atoms are validated onto ordered attributes, so
            // both cells live in `nums` (NaN for NULL → false).
            AtomOp::LessAttr { left, right } => nums[left] < nums[right],
            AtomOp::GreaterAttr { left, right } => nums[left] > nums[right],
        }
    }
}

/// One op of a branch program: an atom plus its two jump targets.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Op {
    atom: AtomOp,
    on_true: u32,
    on_false: u32,
}

/// The nominal-code slot of a NULL or non-nominal cell in a
/// [`RecordView`].
pub const NONE_CODE: u32 = u32::MAX;

/// A typed mirror of one record: per attribute its nominal code (or
/// [`NONE_CODE`]) and its widened numeric payload (or NaN). View-based
/// evaluation replaces per-cell `Value` matching with flat array reads
/// — the shape the TDG repair loop keeps in sync cell-by-cell.
#[derive(Debug, Clone, Default)]
pub struct RecordView {
    codes: Vec<u32>,
    nums: Vec<f64>,
}

impl RecordView {
    /// An all-NULL view over `n_attrs` attributes.
    pub fn new(n_attrs: usize) -> RecordView {
        RecordView { codes: vec![NONE_CODE; n_attrs], nums: vec![f64::NAN; n_attrs] }
    }

    /// Mirror one cell.
    #[inline]
    pub fn sync_attr(&mut self, attr: AttrIdx, value: &Value) {
        match value {
            Value::Null => {
                self.codes[attr] = NONE_CODE;
                self.nums[attr] = f64::NAN;
            }
            Value::Nominal(c) => {
                self.codes[attr] = *c;
                self.nums[attr] = f64::NAN;
            }
            Value::Number(x) => {
                self.codes[attr] = NONE_CODE;
                self.nums[attr] = *x;
            }
            Value::Date(d) => {
                self.codes[attr] = NONE_CODE;
                self.nums[attr] = *d as f64;
            }
        }
    }

    /// Mirror a whole record.
    pub fn sync_all(&mut self, record: &[Value]) {
        for (a, v) in record.iter().enumerate() {
            self.sync_attr(a, v);
        }
    }

    /// The per-attribute nominal codes ([`NONE_CODE`] = NULL or
    /// non-nominal).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The per-attribute widened numeric payloads (NaN = NULL or
    /// nominal).
    pub fn nums(&self) -> &[f64] {
        &self.nums
    }
}

/// A formula compiled into a contiguous short-circuit branch program.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFormula {
    ops: Vec<Op>,
    /// Result when the program is empty — the formula folded to a
    /// record-independent constant (empty connectives: `And([])` is
    /// vacuously true, `Or([])` vacuously false, and those constants
    /// propagate through enclosing connectives).
    const_result: bool,
}

impl CompiledFormula {
    /// Compile a formula. Empty connectives (rejected by
    /// [`Formula::validate`]) fold to their `all`/`any` identities at
    /// compile time, so even degenerate formulae evaluate exactly like
    /// [`eval_formula`](crate::eval::eval_formula).
    pub fn compile(formula: &Formula) -> CompiledFormula {
        match fold_constants(formula) {
            Err(const_result) => CompiledFormula { ops: Vec::new(), const_result },
            Ok(simplified) => {
                let mut ops = Vec::with_capacity(simplified.atom_count());
                emit(&simplified, ACCEPT, REJECT, &mut ops);
                CompiledFormula { ops, const_result: false }
            }
        }
    }

    /// Truth value on a record — identical to
    /// [`eval_formula`](crate::eval::eval_formula) on the source
    /// formula.
    #[inline]
    pub fn eval(&self, record: &[Value]) -> bool {
        if self.ops.is_empty() {
            return self.const_result;
        }
        let mut pc = 0u32;
        loop {
            let op = &self.ops[pc as usize];
            pc = if op.atom.eval(record) { op.on_true } else { op.on_false };
            match pc {
                ACCEPT => return true,
                REJECT => return false,
                _ => {}
            }
        }
    }
}

/// Emit the fused violation program of a rule into the shared arena:
/// premise ops falling through into consequent ops, with ACCEPT
/// meaning "violated" (premise holds, consequent fails) and REJECT
/// "not violated". Returns `(entry, post-guard entry)`: when a guard
/// conjunct exists it is moved to the front of the premise (a pure
/// conjunction is order-insensitive), so dispatchers that have already
/// established the guard can enter one op later.
fn compile_violation(rule: &Rule, guard: Option<&AtomOp>, vops: &mut Vec<Op>) -> (VEntry, VEntry) {
    let premise = fold_constants(&rule.premise).map(|p| reorder_guard_first(p, guard));
    let consequent = fold_constants(&rule.consequent);
    let entry = match (premise, consequent) {
        // Premise never holds, or consequent always holds: never
        // violated.
        (Err(false), _) | (_, Err(true)) => VEntry::Const(false),
        // Premise always holds, consequent never: constantly violated.
        (Err(true), Err(false)) => VEntry::Const(true),
        (Err(true), Ok(c)) => {
            let start = vops.len() as u32;
            // Violated iff the consequent fails.
            emit(&c, REJECT, ACCEPT, vops);
            VEntry::Pc(start)
        }
        (Ok(p), Err(false)) => {
            let start = vops.len() as u32;
            // Violated iff the premise holds.
            emit(&p, ACCEPT, REJECT, vops);
            VEntry::Pc(start)
        }
        (Ok(p), Ok(c)) => {
            let start = vops.len() as u32;
            let consequent_start = start + p.atom_count() as u32;
            emit(&p, consequent_start, REJECT, vops);
            emit(&c, REJECT, ACCEPT, vops);
            VEntry::Pc(start)
        }
    };
    let after_guard = match entry {
        // With a guard known true, a single-atom premise is spent: the
        // next op (the consequent, when the program has one) decides.
        VEntry::Pc(start) if guard.is_some() => {
            let first = &vops[start as usize];
            debug_assert_eq!(Some(&first.atom), guard, "guard is the first premise op");
            // The guard op's on_true target is where evaluation
            // continues once the guard holds.
            match first.on_true {
                ACCEPT => VEntry::Const(true),
                REJECT => VEntry::Const(false),
                next => VEntry::Pc(next),
            }
        }
        other => other,
    };
    (entry, after_guard)
}

/// Move the guard conjunct to the front of a conjunction (verdict-
/// preserving: conjunction order does not affect truth).
fn reorder_guard_first(premise: Formula, guard: Option<&AtomOp>) -> Formula {
    let Some(guard) = guard else {
        return premise;
    };
    match premise {
        Formula::And(mut fs) => {
            if let Some(k) = fs
                .iter()
                .position(|f| matches!(f, Formula::Atom(a) if &AtomOp::compile(a) == guard))
            {
                let g = fs.remove(k);
                fs.insert(0, g);
            }
            Formula::And(fs)
        }
        other => other,
    }
}

/// A guard for the premise: an atom that is a *conjunct* of the
/// premise, so its falsehood makes the whole premise false. `None`
/// when the premise has no atomic conjunct (e.g. a disjunction).
///
/// Nominal-equality conjuncts are preferred: they are the most
/// selective (one code out of the domain) and schedulers can bucket
/// them by `(attr, code)`, ruling whole rule groups out with a lookup.
fn premise_guard(premise: &Formula) -> Option<AtomOp> {
    let atoms: &[Formula] = match premise {
        Formula::Atom(_) => std::slice::from_ref(premise),
        Formula::And(fs) => fs,
        Formula::Or(_) => return None,
    };
    // Rank conjuncts by selectivity: equality guards reject almost
    // every record (a point in the domain), ordering guards about
    // half, disequality/null-test guards almost none.
    fn rank(op: &AtomOp) -> u8 {
        match op {
            AtomOp::EqNominal { .. } => 5,
            AtomOp::EqNumeric { .. } => 4,
            AtomOp::EqAttr { .. } => 3,
            AtomOp::LessConst { .. }
            | AtomOp::GreaterConst { .. }
            | AtomOp::LessAttr { .. }
            | AtomOp::GreaterAttr { .. } => 2,
            AtomOp::IsNull { .. } => 1,
            _ => 0,
        }
    }
    let mut best: Option<(u8, AtomOp)> = None;
    for f in atoms {
        if let Formula::Atom(a) = f {
            let op = AtomOp::compile(a);
            let r = rank(&op);
            if best.is_none_or(|(br, _)| r > br) {
                best = Some((r, op));
            }
        }
    }
    best.map(|(_, op)| op)
}

/// Fold empty connectives to constants, bottom-up: `Err(b)` means the
/// formula is the record-independent constant `b`; `Ok(f)` is an
/// equivalent formula with no empty (or constant) sub-connectives.
/// Dropping a constant conjunct/disjunct is semantics-preserving
/// because atom evaluation has no side effects.
fn fold_constants(formula: &Formula) -> Result<Formula, bool> {
    match formula {
        Formula::Atom(a) => Ok(Formula::Atom(*a)),
        Formula::And(fs) => {
            let mut kept = Vec::with_capacity(fs.len());
            for f in fs {
                match fold_constants(f) {
                    Ok(sub) => kept.push(sub),
                    Err(true) => {}
                    Err(false) => return Err(false),
                }
            }
            if kept.is_empty() {
                Err(true)
            } else {
                Ok(Formula::And(kept))
            }
        }
        Formula::Or(fs) => {
            let mut kept = Vec::with_capacity(fs.len());
            for f in fs {
                match fold_constants(f) {
                    Ok(sub) => kept.push(sub),
                    Err(false) => {}
                    Err(true) => return Err(true),
                }
            }
            if kept.is_empty() {
                Err(false)
            } else {
                Ok(Formula::Or(kept))
            }
        }
    }
}

/// Emit the ops of `formula` into `ops`, jumping to `succ` when the
/// formula holds and `fail` when it does not. Children of a connective
/// are laid out contiguously in order; intermediate targets are
/// computed from atom counts, so emission is a single pass.
fn emit(formula: &Formula, succ: u32, fail: u32, ops: &mut Vec<Op>) {
    match formula {
        Formula::Atom(a) => {
            ops.push(Op { atom: AtomOp::compile(a), on_true: succ, on_false: fail })
        }
        Formula::And(fs) => {
            let mut next = ops.len() as u32;
            for (i, f) in fs.iter().enumerate() {
                next += f.atom_count() as u32;
                let child_succ = if i + 1 == fs.len() { succ } else { next };
                emit(f, child_succ, fail, ops);
            }
        }
        Formula::Or(fs) => {
            let mut next = ops.len() as u32;
            for (i, f) in fs.iter().enumerate() {
                next += f.atom_count() as u32;
                let child_fail = if i + 1 == fs.len() { fail } else { next };
                emit(f, succ, child_fail, ops);
            }
        }
    }
}

/// A fixed-width attribute bitmask (schemas wider than 128 attributes
/// degrade to an all-attributes mask, which only costs re-evaluation,
/// never correctness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttrMask(u128);

/// Widest schema a precise mask covers.
const MASK_WIDTH: usize = 128;

impl AttrMask {
    /// Mark an attribute.
    pub fn set(&mut self, attr: AttrIdx) {
        if attr < MASK_WIDTH {
            self.0 |= 1u128 << attr;
        } else {
            self.0 = u128::MAX;
        }
    }

    /// `true` when the two masks share an attribute.
    pub fn intersects(&self, other: AttrMask) -> bool {
        self.0 & other.0 != 0
    }

    /// `true` when no attribute is marked.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// How one rule's fused violation program starts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VEntry {
    /// The rule's violation verdict is record-independent.
    Const(bool),
    /// Entry pc into the shared violation arena.
    Pc(u32),
}

/// A rule set compiled for repeated per-record evaluation: per-rule
/// *fused violation programs* in one contiguous arena (premise ops
/// flow straight into consequent ops; the two sentinels mean
/// violated / not-violated) with an optional *guard atom* (a conjunct
/// of the premise checked before entering the program — most rules'
/// premises fail on their first conjunct, and the guard decides that
/// without the program-loop overhead), plus a dirty-attribute →
/// affected-rule inverted index.
#[derive(Debug, Clone, Default)]
pub struct CompiledRuleSet {
    /// `by_attr[a]` lists (ascending) the indices of rules that read
    /// attribute `a`.
    by_attr: Vec<Vec<u32>>,
    /// Shared arena of all fused violation programs.
    vops: Vec<Op>,
    /// Per-rule entry into `vops` (or a constant verdict).
    ventries: Vec<VEntry>,
    /// Per-rule entry *after* the guard conjunct (the guard is emitted
    /// first), for dispatchers that already know the guard holds.
    postguard: Vec<VEntry>,
    /// Per-rule guard: a premise conjunct that is false only if the
    /// premise is false (hence the rule not violated).
    guards: Vec<Option<AtomOp>>,
}

impl CompiledRuleSet {
    /// Compile a rule set over a schema of `n_attrs` attributes.
    pub fn compile(rules: &RuleSet, n_attrs: usize) -> CompiledRuleSet {
        let mut by_attr: Vec<Vec<u32>> = vec![Vec::new(); n_attrs];
        for (i, rule) in rules.iter().enumerate() {
            for attr in rule.attrs() {
                if attr < n_attrs {
                    by_attr[attr].push(i as u32);
                }
            }
        }
        let mut vops = Vec::new();
        let mut ventries = Vec::with_capacity(rules.len());
        let mut postguard = Vec::with_capacity(rules.len());
        let mut guards = Vec::with_capacity(rules.len());
        for rule in rules.iter() {
            let guard = premise_guard(&rule.premise);
            let (entry, after_guard) = compile_violation(rule, guard.as_ref(), &mut vops);
            ventries.push(entry);
            postguard.push(after_guard);
            guards.push(guard);
        }
        CompiledRuleSet { by_attr, vops, ventries, postguard, guards }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.ventries.len()
    }

    /// `true` when the set has no rules.
    pub fn is_empty(&self) -> bool {
        self.ventries.is_empty()
    }

    /// Indices of the rules that read `attr` — the
    /// inverted index incremental consumers use to re-evaluate only
    /// affected rules after a cell changes.
    pub fn rules_on_attr(&self, attr: AttrIdx) -> &[u32] {
        &self.by_attr[attr]
    }

    /// The rule's guard when it is a nominal-equality conjunct of the
    /// premise: `Some((attr, code))` means the rule cannot be violated
    /// unless `record[attr] == Nominal(code)`. Schedulers use this to
    /// index rules by (attribute, code) and skip whole groups whose
    /// guard cell does not match.
    pub fn guard_nominal(&self, rule: usize) -> Option<(AttrIdx, u32)> {
        match self.guards[rule] {
            Some(AtomOp::EqNominal { attr, code }) => Some((attr, code)),
            _ => None,
        }
    }

    /// The rule's guard when it is a *numeric threshold* conjunct:
    /// `(attr, x, ord)` with `ord` <0/0/>0 meaning the rule cannot be
    /// violated unless `record[attr]` is respectively `< x`, `== x` or
    /// `> x` (widened coordinates, NULL never passes). Schedulers use
    /// this for branch-free type-major guard sweeps.
    pub fn guard_numeric(&self, rule: usize) -> Option<(AttrIdx, f64, i8)> {
        match self.guards[rule] {
            Some(AtomOp::LessConst { attr, x }) => Some((attr, x, -1)),
            Some(AtomOp::EqNumeric { attr, x }) => Some((attr, x, 0)),
            Some(AtomOp::GreaterConst { attr, x }) => Some((attr, x, 1)),
            _ => None,
        }
    }

    /// Does the record violate rule `rule`? The fastest `Value`-based
    /// entry point: guard atom first, then the rule's fused violation
    /// program — identical verdict to
    /// [`eval_rule`](crate::eval::eval_rule)` == Violated` on the
    /// source rule.
    #[inline]
    pub fn violates_rule(&self, rule: usize, record: &[Value]) -> bool {
        if let Some(guard) = &self.guards[rule] {
            if !guard.eval(record) {
                return false; // a premise conjunct fails: not violated
            }
        }
        match self.ventries[rule] {
            VEntry::Const(v) => v,
            VEntry::Pc(mut pc) => loop {
                let op = &self.vops[pc as usize];
                pc = if op.atom.eval(record) { op.on_true } else { op.on_false };
                match pc {
                    ACCEPT => return true,
                    REJECT => return false,
                    _ => {}
                }
            },
        }
    }

    /// [`CompiledRuleSet::violates_rule`] over a [`RecordView`] —
    /// identical verdict on kind-correct records, a few ns cheaper per
    /// call (flat typed loads instead of `Value` matching).
    #[inline]
    pub fn violates_rule_view(&self, rule: usize, view: &RecordView) -> bool {
        let (codes, nums) = (view.codes.as_slice(), view.nums.as_slice());
        if let Some(guard) = &self.guards[rule] {
            if !guard.eval_view(codes, nums) {
                return false;
            }
        }
        self.run_view(self.ventries[rule], codes, nums)
    }

    /// [`CompiledRuleSet::violates_rule_view`] for dispatchers that
    /// have already established the rule's guard (e.g. through a
    /// bucket lookup): enters the violation program one op past the
    /// guard conjunct. Calling this when the guard does *not* hold
    /// returns garbage — only guard-verified dispatch may use it.
    #[inline(always)]
    pub fn violates_rule_view_postguard(&self, rule: usize, view: &RecordView) -> bool {
        self.run_view(self.postguard[rule], view.codes.as_slice(), view.nums.as_slice())
    }

    /// Does the rule's guard conjunct hold on the view (`true` when
    /// the rule has no guard)? A failing guard proves the rule is not
    /// violated; schedulers cache this per record and refresh it only
    /// when one of [`CompiledRuleSet::guard_attrs`] changes.
    #[inline(always)]
    pub fn guard_passes_view(&self, rule: usize, view: &RecordView) -> bool {
        match &self.guards[rule] {
            Some(g) => g.eval_view(view.codes.as_slice(), view.nums.as_slice()),
            None => true,
        }
    }

    /// The attributes the rule's guard reads (empty when unguarded).
    pub fn guard_attrs(&self, rule: usize) -> Vec<AttrIdx> {
        match &self.guards[rule] {
            Some(g) => match *g {
                AtomOp::EqNominal { attr, .. }
                | AtomOp::NeqNominal { attr, .. }
                | AtomOp::EqNumeric { attr, .. }
                | AtomOp::NeqNumeric { attr, .. }
                | AtomOp::LessConst { attr, .. }
                | AtomOp::GreaterConst { attr, .. }
                | AtomOp::IsNull { attr }
                | AtomOp::IsNotNull { attr } => vec![attr],
                AtomOp::EqAttr { left, right }
                | AtomOp::NeqAttr { left, right }
                | AtomOp::LessAttr { left, right }
                | AtomOp::GreaterAttr { left, right } => vec![left, right],
            },
            None => Vec::new(),
        }
    }

    #[inline(always)]
    fn run_view(&self, entry: VEntry, codes: &[u32], nums: &[f64]) -> bool {
        match entry {
            VEntry::Const(v) => v,
            VEntry::Pc(mut pc) => loop {
                let op = &self.vops[pc as usize];
                pc = if op.atom.eval_view(codes, nums) { op.on_true } else { op.on_false };
                match pc {
                    ACCEPT => return true,
                    REJECT => return false,
                    _ => {}
                }
            },
        }
    }

    /// Per-rule violating-row indices over a table — the compiled
    /// equivalent of running [`violations`](crate::eval::violations)
    /// once per rule, in one pass over the rows.
    pub fn violations(&self, table: &Table) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.len()];
        let mut buf = Vec::with_capacity(table.n_cols());
        for r in 0..table.n_rows() {
            table.row_into(r, &mut buf);
            for (i, rows) in out.iter_mut().enumerate() {
                if self.violates_rule(i, &buf) {
                    rows.push(r);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_formula, eval_rule, RuleStatus};
    use dq_table::SchemaBuilder;

    fn eq(attr: AttrIdx, code: u32) -> Formula {
        Formula::Atom(Atom::EqConst { attr, value: Value::Nominal(code) })
    }

    #[test]
    fn atoms_compile_and_match_interpreter() {
        let atoms = [
            Atom::EqConst { attr: 0, value: Value::Nominal(1) },
            Atom::EqConst { attr: 1, value: Value::Number(2.0) },
            Atom::NeqConst { attr: 0, value: Value::Nominal(1) },
            Atom::NeqConst { attr: 2, value: Value::Number(3.0) },
            Atom::LessConst { attr: 1, value: 5.0 },
            Atom::GreaterConst { attr: 2, value: 5.0 },
            Atom::IsNull { attr: 0 },
            Atom::IsNotNull { attr: 1 },
            Atom::EqAttr { left: 0, right: 3 },
            Atom::NeqAttr { left: 1, right: 2 },
            Atom::LessAttr { left: 1, right: 2 },
            Atom::GreaterAttr { left: 2, right: 1 },
        ];
        let records: Vec<Vec<Value>> = vec![
            vec![Value::Null; 4],
            vec![Value::Nominal(1), Value::Number(2.0), Value::Date(3), Value::Nominal(1)],
            vec![Value::Nominal(9), Value::Number(7.5), Value::Number(3.0), Value::Nominal(0)],
            vec![Value::Number(1.0), Value::Nominal(2), Value::Date(8), Value::Null],
        ];
        for atom in &atoms {
            let f = Formula::Atom(*atom);
            let c = CompiledFormula::compile(&f);
            for rec in &records {
                assert_eq!(c.eval(rec), eval_formula(&f, rec), "{atom} on {rec:?}");
            }
        }
    }

    #[test]
    fn nested_connectives_short_circuit_identically() {
        let f = Formula::And(vec![
            eq(0, 0),
            Formula::Or(vec![
                eq(1, 1),
                Formula::And(vec![eq(2, 0), eq(3, 1)]),
                Formula::Atom(Atom::IsNull { attr: 1 }),
            ]),
        ]);
        let c = CompiledFormula::compile(&f);
        for bits in 0..(1u32 << 8) {
            let rec: Vec<Value> = (0..4)
                .map(|i| match (bits >> (2 * i)) & 3 {
                    0 => Value::Null,
                    1 => Value::Nominal(0),
                    2 => Value::Nominal(1),
                    _ => Value::Nominal(2),
                })
                .collect();
            assert_eq!(c.eval(&rec), eval_formula(&f, &rec), "bits {bits:#x}");
        }
    }

    #[test]
    fn masks_and_inverted_index() {
        let rules = RuleSet::from_rules(vec![
            Rule::new(eq(0, 0), eq(1, 1)),
            Rule::new(eq(2, 0), Formula::Atom(Atom::LessAttr { left: 1, right: 3 })),
        ]);
        let c = CompiledRuleSet::compile(&rules, 4);
        assert_eq!(c.len(), 2);
        assert_eq!(c.rules_on_attr(0), &[0]);
        assert_eq!(c.rules_on_attr(1), &[0, 1]);
        assert_eq!(c.rules_on_attr(2), &[1]);
        assert_eq!(c.rules_on_attr(3), &[1]);
    }

    #[test]
    fn table_violations_match_per_rule_scan() {
        let schema =
            SchemaBuilder::new().nominal("a", ["x", "y"]).nominal("b", ["x", "y"]).build().unwrap();
        let mut t = Table::new(schema);
        t.push_row(&[Value::Nominal(0), Value::Nominal(1)]).unwrap();
        t.push_row(&[Value::Nominal(0), Value::Nominal(0)]).unwrap();
        t.push_row(&[Value::Nominal(1), Value::Nominal(0)]).unwrap();
        t.push_row(&[Value::Nominal(0), Value::Null]).unwrap();
        let rules = RuleSet::from_rules(vec![Rule::new(eq(0, 0), eq(1, 1))]);
        let c = CompiledRuleSet::compile(&rules, 2);
        assert_eq!(c.violations(&t), vec![vec![1, 3]]);
    }

    #[test]
    fn fused_violation_programs_match_eval_rule() {
        let rules = RuleSet::from_rules(vec![
            // Guarded 2-conjunct premise.
            Rule::new(Formula::And(vec![eq(0, 0), eq(1, 1)]), eq(2, 2)),
            // Disjunctive premise (no guard).
            Rule::new(Formula::Or(vec![eq(0, 1), eq(1, 0)]), Formula::Or(vec![eq(2, 0), eq(3, 1)])),
            // Degenerate: constant-true premise, real consequent.
            Rule::new(Formula::And(vec![]), eq(3, 0)),
            // Degenerate: constant-false premise.
            Rule::new(Formula::Or(vec![]), eq(0, 0)),
            // Relational consequent.
            Rule::new(eq(0, 2), Formula::Atom(Atom::LessAttr { left: 1, right: 2 })),
        ]);
        let c = CompiledRuleSet::compile(&rules, 4);
        let mut view = RecordView::new(4);
        for bits in 0..(1u32 << 8) {
            let rec: Vec<Value> = (0..4)
                .map(|i| match (bits >> (2 * i)) & 3 {
                    0 => Value::Null,
                    1 => Value::Nominal(0),
                    2 => Value::Nominal(1),
                    _ => Value::Nominal(2),
                })
                .collect();
            view.sync_all(&rec);
            for i in 0..c.len() {
                let expected = eval_rule(&rules.rules[i], &rec) == RuleStatus::Violated;
                assert_eq!(c.violates_rule(i, &rec), expected, "rule {i} on {rec:?}");
                if i != 4 {
                    // Rule 4 reads attrs 1/2 through an ordering atom;
                    // these all-nominal records are kind-incorrect for
                    // it, which the view path does not support.
                    assert_eq!(
                        c.violates_rule_view(i, &view),
                        expected,
                        "rule {i} view on {rec:?}"
                    );
                    // When the guard holds, the post-guard entry must
                    // agree with the full program.
                    if let Some((gattr, gcode)) = c.guard_nominal(i) {
                        if rec[gattr] == Value::Nominal(gcode) {
                            assert_eq!(
                                c.violates_rule_view_postguard(i, &view),
                                expected,
                                "rule {i} postguard on {rec:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn view_evaluation_matches_on_kind_correct_records() {
        // Attrs: 0 nominal, 1 numeric, 2 numeric, 3 date.
        let rules = RuleSet::from_rules(vec![
            Rule::new(eq(0, 0), Formula::Atom(Atom::LessAttr { left: 1, right: 2 })),
            Rule::new(
                Formula::Atom(Atom::GreaterConst { attr: 1, value: 2.0 }),
                Formula::Atom(Atom::EqAttr { left: 2, right: 3 }),
            ),
            Rule::new(
                Formula::Atom(Atom::NeqConst { attr: 1, value: Value::Number(1.0) }),
                Formula::Atom(Atom::IsNull { attr: 3 }),
            ),
            Rule::new(
                Formula::Atom(Atom::IsNotNull { attr: 0 }),
                Formula::Atom(Atom::NeqAttr { left: 1, right: 3 }),
            ),
        ]);
        let c = CompiledRuleSet::compile(&rules, 4);
        let cells0 = [Value::Null, Value::Nominal(0), Value::Nominal(1)];
        let cells_num = [Value::Null, Value::Number(1.0), Value::Number(3.0)];
        let cells_date = [Value::Null, Value::Date(1), Value::Date(3)];
        let mut view = RecordView::new(4);
        for &v0 in &cells0 {
            for &v1 in &cells_num {
                for &v2 in &cells_num {
                    for &v3 in &cells_date {
                        let rec = vec![v0, v1, v2, v3];
                        view.sync_all(&rec);
                        for i in 0..c.len() {
                            assert_eq!(
                                c.violates_rule_view(i, &view),
                                c.violates_rule(i, &rec),
                                "rule {i} on {rec:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_connectives_fold_to_their_identities() {
        let records: [&[Value]; 2] = [&[Value::Null], &[Value::Nominal(0)]];
        for rec in records {
            assert!(CompiledFormula::compile(&Formula::And(vec![])).eval(rec));
            assert!(!CompiledFormula::compile(&Formula::Or(vec![])).eval(rec));
            // Nested: And([Or([]), atom]) is constantly false, and
            // Or([And([]), atom]) constantly true — exactly what the
            // interpreter computes.
            let and_dead = Formula::And(vec![Formula::Or(vec![]), eq(0, 0)]);
            assert_eq!(CompiledFormula::compile(&and_dead).eval(rec), eval_formula(&and_dead, rec));
            let or_live = Formula::Or(vec![Formula::And(vec![]), eq(0, 0)]);
            assert_eq!(CompiledFormula::compile(&or_live).eval(rec), eval_formula(&or_live, rec));
        }
    }

    #[test]
    fn mask_width_degrades_gracefully() {
        let mut m = AttrMask::default();
        assert!(m.is_empty());
        m.set(200); // beyond the precise width
        let mut n = AttrMask::default();
        n.set(3);
        assert!(m.intersects(n), "overflowed mask must intersect everything");
    }
}
