//! Atomic TDG-formulae (Def. 1 of the paper).

use dq_table::{AttrIdx, AttrType, Schema, Value};
use std::fmt;

/// An atomic TDG-formula.
///
/// Propositional atoms relate an attribute to a domain constant;
/// relational atoms relate two attributes. Ordering atoms (`<`, `>`)
/// are restricted to *ordered* attributes (numeric or date); equality
/// atoms between attributes require *compatible* attributes (both
/// nominal — compared by code — or both ordered — compared by widened
/// numeric value). These well-formedness rules are checked by
/// [`Atom::validate`].
///
/// NULL semantics (which Table 1's negation encodes): every atom except
/// `IsNull` requires its attribute(s) to be non-NULL to hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Atom {
    /// `A = a`.
    EqConst {
        /// Attribute index.
        attr: AttrIdx,
        /// Non-NULL domain constant.
        value: Value,
    },
    /// `A ≠ a`.
    NeqConst {
        /// Attribute index.
        attr: AttrIdx,
        /// Non-NULL domain constant.
        value: Value,
    },
    /// `N < n` (ordered attributes only; dates widen to day numbers).
    LessConst {
        /// Attribute index.
        attr: AttrIdx,
        /// Threshold, in widened numeric coordinates.
        value: f64,
    },
    /// `N > n` (ordered attributes only).
    GreaterConst {
        /// Attribute index.
        attr: AttrIdx,
        /// Threshold, in widened numeric coordinates.
        value: f64,
    },
    /// `A isnull`.
    IsNull {
        /// Attribute index.
        attr: AttrIdx,
    },
    /// `A isnotnull`.
    IsNotNull {
        /// Attribute index.
        attr: AttrIdx,
    },
    /// `A = B`.
    EqAttr {
        /// Left attribute index.
        left: AttrIdx,
        /// Right attribute index.
        right: AttrIdx,
    },
    /// `A ≠ B`.
    NeqAttr {
        /// Left attribute index.
        left: AttrIdx,
        /// Right attribute index.
        right: AttrIdx,
    },
    /// `N < M` (both ordered).
    LessAttr {
        /// Left attribute index.
        left: AttrIdx,
        /// Right attribute index.
        right: AttrIdx,
    },
    /// `N > M` (both ordered).
    GreaterAttr {
        /// Left attribute index.
        left: AttrIdx,
        /// Right attribute index.
        right: AttrIdx,
    },
}

impl Atom {
    /// All attribute indices the atom mentions.
    pub fn attrs(&self) -> Vec<AttrIdx> {
        match self {
            Atom::EqConst { attr, .. }
            | Atom::NeqConst { attr, .. }
            | Atom::LessConst { attr, .. }
            | Atom::GreaterConst { attr, .. }
            | Atom::IsNull { attr }
            | Atom::IsNotNull { attr } => vec![*attr],
            Atom::EqAttr { left, right }
            | Atom::NeqAttr { left, right }
            | Atom::LessAttr { left, right }
            | Atom::GreaterAttr { left, right } => vec![*left, *right],
        }
    }

    /// Check well-formedness against a schema: indices in range,
    /// constants of the attribute's kind, ordering restricted to
    /// ordered attributes, relational atoms between compatible
    /// attributes and distinct attributes.
    pub fn validate(&self, schema: &Schema) -> Result<(), String> {
        let check_idx = |i: AttrIdx| {
            if i >= schema.len() {
                Err(format!("attribute index {i} out of range"))
            } else {
                Ok(())
            }
        };
        match self {
            Atom::EqConst { attr, value } | Atom::NeqConst { attr, value } => {
                check_idx(*attr)?;
                if value.is_null() {
                    return Err("NULL is not a domain constant; use isnull".into());
                }
                let ty = &schema.attr(*attr).ty;
                if !ty.kind_matches(value) {
                    return Err(format!(
                        "constant {value} does not match attribute `{}`",
                        schema.attr(*attr).name
                    ));
                }
                if let (Value::Nominal(c), AttrType::Nominal { labels }) = (value, ty) {
                    if *c as usize >= labels.len() {
                        return Err(format!(
                            "nominal code {c} out of domain of `{}`",
                            schema.attr(*attr).name
                        ));
                    }
                }
                Ok(())
            }
            Atom::LessConst { attr, value } | Atom::GreaterConst { attr, value } => {
                check_idx(*attr)?;
                if !schema.attr(*attr).ty.is_ordered() {
                    return Err(format!(
                        "ordering atom on nominal attribute `{}`",
                        schema.attr(*attr).name
                    ));
                }
                if !value.is_finite() {
                    return Err("non-finite threshold".into());
                }
                Ok(())
            }
            Atom::IsNull { attr } | Atom::IsNotNull { attr } => check_idx(*attr),
            Atom::EqAttr { left, right } | Atom::NeqAttr { left, right } => {
                check_idx(*left)?;
                check_idx(*right)?;
                if left == right {
                    return Err("relational atom over a single attribute".into());
                }
                if !compatible(schema, *left, *right) {
                    return Err(format!(
                        "attributes `{}` and `{}` are not comparable",
                        schema.attr(*left).name,
                        schema.attr(*right).name
                    ));
                }
                Ok(())
            }
            Atom::LessAttr { left, right } | Atom::GreaterAttr { left, right } => {
                check_idx(*left)?;
                check_idx(*right)?;
                if left == right {
                    return Err("relational atom over a single attribute".into());
                }
                if !schema.attr(*left).ty.is_ordered() || !schema.attr(*right).ty.is_ordered() {
                    return Err("ordering atom over nominal attribute(s)".into());
                }
                Ok(())
            }
        }
    }

    /// Render with attribute names and labels from `schema`.
    pub fn render(&self, schema: &Schema) -> String {
        let name = |i: AttrIdx| schema.attr(i).name.clone();
        match self {
            Atom::EqConst { attr, value } => {
                format!("{} = {}", name(*attr), schema.display_value(*attr, value))
            }
            Atom::NeqConst { attr, value } => {
                format!("{} != {}", name(*attr), schema.display_value(*attr, value))
            }
            Atom::LessConst { attr, value } => {
                format!("{} < {}", name(*attr), render_threshold(schema, *attr, *value))
            }
            Atom::GreaterConst { attr, value } => {
                format!("{} > {}", name(*attr), render_threshold(schema, *attr, *value))
            }
            Atom::IsNull { attr } => format!("{} isnull", name(*attr)),
            Atom::IsNotNull { attr } => format!("{} isnotnull", name(*attr)),
            Atom::EqAttr { left, right } => format!("{} = {}", name(*left), name(*right)),
            Atom::NeqAttr { left, right } => format!("{} != {}", name(*left), name(*right)),
            Atom::LessAttr { left, right } => format!("{} < {}", name(*left), name(*right)),
            Atom::GreaterAttr { left, right } => format!("{} > {}", name(*left), name(*right)),
        }
    }
}

/// Two attributes are comparable if both are nominal with the *same*
/// label list, or both are ordered (numeric/date, compared in widened
/// day/number coordinates).
pub fn compatible(schema: &Schema, a: AttrIdx, b: AttrIdx) -> bool {
    match (&schema.attr(a).ty, &schema.attr(b).ty) {
        (AttrType::Nominal { labels: la }, AttrType::Nominal { labels: lb }) => la == lb,
        (x, y) => x.is_ordered() && y.is_ordered(),
    }
}

fn render_threshold(schema: &Schema, attr: AttrIdx, value: f64) -> String {
    match schema.attr(attr).ty {
        AttrType::Date { .. } => Value::Date(value as i64).to_string(),
        _ => format!("{value}"),
    }
}

impl fmt::Display for Atom {
    /// Schema-less rendering with `@i` attribute placeholders; prefer
    /// [`Atom::render`] when a schema is at hand.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::EqConst { attr, value } => write!(f, "@{attr} = {value}"),
            Atom::NeqConst { attr, value } => write!(f, "@{attr} != {value}"),
            Atom::LessConst { attr, value } => write!(f, "@{attr} < {value}"),
            Atom::GreaterConst { attr, value } => write!(f, "@{attr} > {value}"),
            Atom::IsNull { attr } => write!(f, "@{attr} isnull"),
            Atom::IsNotNull { attr } => write!(f, "@{attr} isnotnull"),
            Atom::EqAttr { left, right } => write!(f, "@{left} = @{right}"),
            Atom::NeqAttr { left, right } => write!(f, "@{left} != @{right}"),
            Atom::LessAttr { left, right } => write!(f, "@{left} < @{right}"),
            Atom::GreaterAttr { left, right } => write!(f, "@{left} > @{right}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_table::SchemaBuilder;

    fn schema() -> std::sync::Arc<Schema> {
        SchemaBuilder::new()
            .nominal("c1", ["a", "b"])
            .nominal("c2", ["a", "b"])
            .nominal("c3", ["x", "y", "z"])
            .numeric("n1", 0.0, 10.0)
            .numeric("n2", -5.0, 5.0)
            .date_ymd("d", (2000, 1, 1), (2003, 12, 31))
            .build()
            .unwrap()
    }

    #[test]
    fn validates_well_formed_atoms() {
        let s = schema();
        let ok = [
            Atom::EqConst { attr: 0, value: Value::Nominal(1) },
            Atom::NeqConst { attr: 3, value: Value::Number(4.0) },
            Atom::LessConst { attr: 3, value: 2.0 },
            Atom::GreaterConst { attr: 5, value: 11_000.0 },
            Atom::IsNull { attr: 2 },
            Atom::IsNotNull { attr: 4 },
            Atom::EqAttr { left: 0, right: 1 },
            Atom::NeqAttr { left: 0, right: 1 },
            Atom::LessAttr { left: 3, right: 4 },
            Atom::GreaterAttr { left: 4, right: 5 }, // number vs date: both ordered
        ];
        for a in ok {
            assert!(a.validate(&s).is_ok(), "{a} should validate");
        }
    }

    #[test]
    fn rejects_ill_formed_atoms() {
        let s = schema();
        let bad = [
            Atom::EqConst { attr: 99, value: Value::Nominal(0) },
            Atom::EqConst { attr: 0, value: Value::Null },
            Atom::EqConst { attr: 0, value: Value::Number(1.0) },
            Atom::EqConst { attr: 0, value: Value::Nominal(7) },
            Atom::LessConst { attr: 0, value: 1.0 },
            Atom::LessConst { attr: 3, value: f64::NAN },
            Atom::EqAttr { left: 0, right: 0 },
            Atom::EqAttr { left: 0, right: 2 }, // different label lists
            Atom::EqAttr { left: 0, right: 3 }, // nominal vs numeric
            Atom::LessAttr { left: 0, right: 3 },
        ];
        for a in bad {
            assert!(a.validate(&s).is_err(), "{a} should be rejected");
        }
    }

    #[test]
    fn rendering_uses_labels_and_dates() {
        let s = schema();
        assert_eq!(Atom::EqConst { attr: 0, value: Value::Nominal(1) }.render(&s), "c1 = b");
        assert_eq!(Atom::LessAttr { left: 3, right: 4 }.render(&s), "n1 < n2");
        let a = Atom::GreaterConst { attr: 5, value: 0.0 };
        assert_eq!(a.render(&s), "d > 1970-01-01");
        assert_eq!(a.to_string(), "@5 > 0");
    }

    #[test]
    fn attrs_listing() {
        assert_eq!(Atom::IsNull { attr: 3 }.attrs(), vec![3]);
        assert_eq!(Atom::EqAttr { left: 1, right: 4 }.attrs(), vec![1, 4]);
    }
}
