//! TDG-formulae (Def. 2) and TDG-rules (Def. 3).

use crate::atom::Atom;
use dq_table::{AttrIdx, Schema};
use std::fmt;

/// A TDG-formula: an atom, or a finite conjunction/disjunction of
/// sub-formulae.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// An atomic TDG-formula.
    Atom(Atom),
    /// `α₁ ∧ … ∧ αₙ`.
    And(Vec<Formula>),
    /// `α₁ ∨ … ∨ αₙ`.
    Or(Vec<Formula>),
}

impl Formula {
    /// Number of atomic sub-formulae.
    pub fn atom_count(&self) -> usize {
        match self {
            Formula::Atom(_) => 1,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().map(Formula::atom_count).sum(),
        }
    }

    /// Nesting depth (an atom has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Formula::Atom(_) => 1,
            Formula::And(fs) | Formula::Or(fs) => {
                1 + fs.iter().map(Formula::depth).max().unwrap_or(0)
            }
        }
    }

    /// All attribute indices mentioned, deduplicated, in first-seen
    /// order.
    pub fn attrs(&self) -> Vec<AttrIdx> {
        let mut out = Vec::new();
        self.visit_atoms(&mut |a| {
            for idx in a.attrs() {
                if !out.contains(&idx) {
                    out.push(idx);
                }
            }
        });
        out
    }

    /// Visit every atom in left-to-right order.
    pub fn visit_atoms<F: FnMut(&Atom)>(&self, f: &mut F) {
        match self {
            Formula::Atom(a) => f(a),
            Formula::And(fs) | Formula::Or(fs) => {
                for sub in fs {
                    sub.visit_atoms(f);
                }
            }
        }
    }

    /// Validate every atom against `schema` and reject empty
    /// connectives (a conjunction/disjunction of zero formulae has no
    /// meaning in Def. 2, which requires `n ∈ ℕ`, i.e. at least one).
    pub fn validate(&self, schema: &Schema) -> Result<(), String> {
        match self {
            Formula::Atom(a) => a.validate(schema),
            Formula::And(fs) | Formula::Or(fs) => {
                if fs.is_empty() {
                    return Err("empty connective".into());
                }
                for f in fs {
                    f.validate(schema)?;
                }
                Ok(())
            }
        }
    }

    /// Render with attribute names/labels from `schema`.
    pub fn render(&self, schema: &Schema) -> String {
        match self {
            Formula::Atom(a) => a.render(schema),
            Formula::And(fs) => join_rendered(fs, schema, " and "),
            Formula::Or(fs) => join_rendered(fs, schema, " or "),
        }
    }
}

fn join_rendered(fs: &[Formula], schema: &Schema, sep: &str) -> String {
    let parts: Vec<String> = fs
        .iter()
        .map(|f| match f {
            Formula::Atom(_) => f.render(schema),
            _ => format!("({})", f.render(schema)),
        })
        .collect();
    parts.join(sep)
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::And(fs) => write_joined(f, fs, " and "),
            Formula::Or(fs) => write_joined(f, fs, " or "),
        }
    }
}

fn write_joined(f: &mut fmt::Formatter<'_>, fs: &[Formula], sep: &str) -> fmt::Result {
    for (i, sub) in fs.iter().enumerate() {
        if i > 0 {
            write!(f, "{sep}")?;
        }
        match sub {
            Formula::Atom(_) => write!(f, "{sub}")?,
            _ => write!(f, "({sub})")?,
        }
    }
    Ok(())
}

/// A TDG-rule `premise → consequent` (Def. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The antecedent `α`.
    pub premise: Formula,
    /// The consequent `β`.
    pub consequent: Formula,
}

impl Rule {
    /// Construct a rule.
    pub fn new(premise: Formula, consequent: Formula) -> Self {
        Rule { premise, consequent }
    }

    /// Validate both sides against `schema`.
    pub fn validate(&self, schema: &Schema) -> Result<(), String> {
        self.premise.validate(schema)?;
        self.consequent.validate(schema)
    }

    /// All attribute indices mentioned on either side.
    pub fn attrs(&self) -> Vec<AttrIdx> {
        let mut out = self.premise.attrs();
        for a in self.consequent.attrs() {
            if !out.contains(&a) {
                out.push(a);
            }
        }
        out
    }

    /// Render with attribute names/labels from `schema`.
    pub fn render(&self, schema: &Schema) -> String {
        format!("{} -> {}", self.premise.render(schema), self.consequent.render(schema))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.premise, self.consequent)
    }
}

/// An ordered collection of rules, as produced by the rule generator
/// and consumed by the data generator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    /// The rules, in generation order.
    pub rules: Vec<Rule>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> Self {
        RuleSet::default()
    }

    /// Wrap an existing vector.
    pub fn from_rules(rules: Vec<Rule>) -> Self {
        RuleSet { rules }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` if there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterate over the rules.
    pub fn iter(&self) -> std::slice::Iter<'_, Rule> {
        self.rules.iter()
    }

    /// Render one rule per line with attribute names from `schema`.
    pub fn render(&self, schema: &Schema) -> String {
        self.rules.iter().map(|r| r.render(schema)).collect::<Vec<_>>().join("\n")
    }
}

impl<'a> IntoIterator for &'a RuleSet {
    type Item = &'a Rule;
    type IntoIter = std::slice::Iter<'a, Rule>;
    fn into_iter(self) -> Self::IntoIter {
        self.rules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_table::{SchemaBuilder, Value};

    fn schema() -> std::sync::Arc<Schema> {
        SchemaBuilder::new()
            .nominal("a", ["x", "y"])
            .nominal("b", ["x", "y"])
            .numeric("n", 0.0, 10.0)
            .build()
            .unwrap()
    }

    fn eq(attr: AttrIdx, code: u32) -> Atom {
        Atom::EqConst { attr, value: Value::Nominal(code) }
    }

    #[test]
    fn structure_measures() {
        let f = Formula::And(vec![
            Formula::Atom(eq(0, 0)),
            Formula::Or(vec![Formula::Atom(eq(1, 0)), Formula::Atom(eq(1, 1))]),
        ]);
        assert_eq!(f.atom_count(), 3);
        assert_eq!(f.depth(), 3);
        assert_eq!(f.attrs(), vec![0, 1]);
    }

    #[test]
    fn validation_rejects_empty_connectives() {
        let s = schema();
        assert!(Formula::And(vec![]).validate(&s).is_err());
        assert!(Formula::Or(vec![]).validate(&s).is_err());
        assert!(Formula::Atom(eq(0, 0)).validate(&s).is_ok());
        // Nested invalid atom propagates.
        let f = Formula::And(vec![Formula::Atom(eq(0, 9))]);
        assert!(f.validate(&s).is_err());
    }

    #[test]
    fn rendering() {
        let s = schema();
        let f = Formula::And(vec![
            Formula::Atom(eq(0, 0)),
            Formula::Or(vec![
                Formula::Atom(eq(1, 1)),
                Formula::Atom(Atom::LessConst { attr: 2, value: 3.0 }),
            ]),
        ]);
        assert_eq!(f.render(&s), "a = x and (b = y or n < 3)");
        let r = Rule::new(Formula::Atom(eq(0, 0)), Formula::Atom(eq(1, 1)));
        assert_eq!(r.render(&s), "a = x -> b = y");
        assert_eq!(r.to_string(), "@0 = #0 -> @1 = #1");
    }

    #[test]
    fn rule_attrs_and_set_iteration() {
        let r1 = Rule::new(Formula::Atom(eq(0, 0)), Formula::Atom(eq(1, 1)));
        let r2 = Rule::new(Formula::Atom(eq(1, 0)), Formula::Atom(eq(0, 1)));
        assert_eq!(r1.attrs(), vec![0, 1]);
        let rs = RuleSet::from_rules(vec![r1, r2]);
        assert_eq!(rs.len(), 2);
        assert!(!rs.is_empty());
        assert_eq!(rs.iter().count(), 2);
        assert_eq!((&rs).into_iter().count(), 2);
        let s = schema();
        assert_eq!(rs.render(&s).lines().count(), 2);
    }
}
