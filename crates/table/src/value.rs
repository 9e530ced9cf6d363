//! Cell values with explicit NULL.

use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
///
/// Nominal values are stored as codes into the attribute's label list —
/// the schema owns the labels, the table only stores `u32` codes. Dates
/// are stored as day numbers (days since 1970-01-01, may be negative);
/// see [`crate::date`] for conversions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Missing value (SQL NULL).
    Null,
    /// A nominal value, as a code into the attribute's label list.
    Nominal(u32),
    /// A numeric value.
    Number(f64),
    /// A date, as a day number relative to 1970-01-01.
    Date(i64),
}

impl Value {
    /// `true` iff the value is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The nominal code, if this is a nominal value.
    #[inline]
    pub fn as_nominal(&self) -> Option<u32> {
        match self {
            Value::Nominal(c) => Some(*c),
            _ => None,
        }
    }

    /// The numeric payload, widening dates to their day number, if this
    /// is a number or a date.
    ///
    /// Dates take part in numeric comparisons (`N < n` atoms, limiter
    /// pollution, equal-frequency binning) through this widening, exactly
    /// like the paper treats date attributes as orderable.
    #[inline]
    pub fn as_numeric(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// SQL-style three-valued equality: `None` when either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(match (self, other) {
            (Value::Nominal(a), Value::Nominal(b)) => a == b,
            (a, b) => match (a.as_numeric(), b.as_numeric()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        })
    }

    /// SQL-style three-valued ordering: `None` when either side is NULL
    /// or the values are not mutually orderable (e.g. nominal vs number).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Nominal(a), Value::Nominal(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_numeric()?, b.as_numeric()?);
                x.partial_cmp(&y)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Nominal(c) => write!(f, "#{c}"),
            Value::Number(x) => write!(f, "{x}"),
            Value::Date(d) => crate::date::write_iso(f, *d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_detection() {
        assert!(Value::Null.is_null());
        assert!(!Value::Nominal(0).is_null());
        assert!(!Value::Number(0.0).is_null());
        assert!(!Value::Date(0).is_null());
    }

    #[test]
    fn numeric_widening_includes_dates() {
        assert_eq!(Value::Number(2.5).as_numeric(), Some(2.5));
        assert_eq!(Value::Date(10).as_numeric(), Some(10.0));
        assert_eq!(Value::Nominal(1).as_numeric(), None);
        assert_eq!(Value::Null.as_numeric(), None);
    }

    #[test]
    fn sql_eq_is_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Number(1.0)), None);
        assert_eq!(Value::Number(1.0).sql_eq(&Value::Null), None);
        assert_eq!(Value::Number(1.0).sql_eq(&Value::Number(1.0)), Some(true));
        assert_eq!(Value::Nominal(3).sql_eq(&Value::Nominal(4)), Some(false));
    }

    #[test]
    fn sql_cmp_orders_dates_and_numbers_together() {
        assert_eq!(Value::Date(5).sql_cmp(&Value::Number(6.0)), Some(Ordering::Less));
        assert_eq!(Value::Number(6.0).sql_cmp(&Value::Date(5)), Some(Ordering::Greater));
        assert_eq!(Value::Null.sql_cmp(&Value::Number(0.0)), None);
        // Nominal values only order against other nominal values.
        assert_eq!(Value::Nominal(1).sql_cmp(&Value::Number(0.0)), None);
        assert_eq!(Value::Nominal(1).sql_cmp(&Value::Nominal(2)), Some(Ordering::Less));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Nominal(7).to_string(), "#7");
        assert_eq!(Value::Number(1.5).to_string(), "1.5");
        assert_eq!(Value::Date(0).to_string(), "1970-01-01");
    }
}
