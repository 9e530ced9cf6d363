//! # dq-logic — the TDG rule language (sec. 4.1 of the paper)
//!
//! The test data generator of *Systematic Development of Data
//! Mining-Based Data Quality Tools* is grounded in a small logic of
//! **TDG-formulae** over a relation schema:
//!
//! * **atomic formulae** (Def. 1): propositional `A = a`, `A ≠ a`,
//!   `N < n`, `N > n`, `A isnull`, `A isnotnull` and relational
//!   `A = B`, `A ≠ B`, `N < M`, `N > M`;
//! * **formulae** (Def. 2): finite conjunctions and disjunctions;
//! * **rules** (Def. 3): implications `α → β` between formulae.
//!
//! The logic deliberately has no negation operator; instead every
//! formula `α` has a **TDG-negation** `α̃` (Table 1 of the paper) that
//! is true exactly when `α` is false under the NULL-aware semantics.
//! Validity of `α → β` thereby reduces to unsatisfiability of
//! `α ∧ β̃` ([`mod@implies`]).
//!
//! Satisfiability ([`sat`]) follows the paper's *pragmatic* procedure:
//! transform to DNF, then for each conjunct successively restrict
//! per-attribute domain ranges, instantiate links between attributes
//! for relational atoms, and propagate restrictions transitively. The
//! procedure is **sound for UNSAT** (a formula reported unsatisfiable
//! has no model) but may, in rare artificial cases, report SAT for an
//! unsatisfiable formula — the paper documents the same limitation.
//!
//! On top of this the crate implements the semantic hygiene conditions
//! the generator needs: **natural formulae, rules and rule sets**
//! (Defs. 4-6), a NULL-aware record [`eval`]uator, and a small text
//! [`parser`] for writing rules in examples and tests.

pub mod atom;
pub mod dnf;
pub mod domain;
pub mod eval;
pub mod formula;
pub mod implies;
pub mod natural;
pub mod negate;
pub mod pairs;
pub mod parser;
pub mod program;
pub mod sat;

pub use atom::Atom;
pub use dnf::to_dnf;
pub use domain::DomainSet;
pub use eval::{eval_formula, eval_rule, RuleStatus};
pub use formula::{Formula, Rule, RuleSet};
pub use implies::{equivalent, implies, is_contradictory_rule, is_tautological_rule, valid};
pub use natural::{is_natural_formula, is_natural_rule, is_natural_rule_set, rule_pair_conflict};
pub use negate::negate;
pub use pairs::CachedRule;
pub use parser::{parse_formula, parse_rule, ParseError};
pub use program::{AttrMask, CompiledFormula, CompiledRuleSet, RecordView, NONE_CODE};
pub use sat::{satisfiable, satisfiable_conjunction};
