//! Typed column storage.

use crate::value::Value;

/// A single cell read out of a typed column without going through the
/// [`Value`] enum: nominal columns yield codes, ordered (number/date)
/// columns yield the numeric widening [`Value::as_numeric`] performs.
/// This is the shape hot scans cache one row of — the distinction that
/// matters to them is "code or number", not the full value kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TypedCell {
    /// A nominal column's cell: the code, `None` for NULL.
    Nominal(Option<u32>),
    /// An ordered column's cell: the widened payload, `None` for NULL.
    Numeric(Option<f64>),
}

impl TypedCell {
    /// The nominal code — mirrors `Value::as_nominal` on the cell's
    /// value (`None` for NULLs and for ordered columns).
    #[inline]
    pub fn as_nominal(self) -> Option<u32> {
        match self {
            TypedCell::Nominal(c) => c,
            TypedCell::Numeric(_) => None,
        }
    }

    /// The numeric payload — mirrors `Value::as_numeric` on the cell's
    /// value (`None` for NULLs and for nominal columns).
    #[inline]
    pub fn as_numeric(self) -> Option<f64> {
        match self {
            TypedCell::Numeric(x) => x,
            TypedCell::Nominal(_) => None,
        }
    }
}

/// One column of a table, stored as a typed vector with per-cell NULLs.
///
/// Columns never change their kind after creation; the kind always
/// matches the schema's attribute type. Out-of-domain payloads (e.g. a
/// nominal code past the label list after pollution, or a number beyond
/// the declared range) are representable on purpose — dirty data is the
/// whole point of this workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Codes into the attribute's nominal label list.
    Nominal(Vec<Option<u32>>),
    /// Floating-point numbers.
    Number(Vec<Option<f64>>),
    /// Day numbers (see [`crate::date`]).
    Date(Vec<Option<i64>>),
}

impl Column {
    /// An empty column matching the given attribute type.
    pub fn for_type(ty: &crate::schema::AttrType) -> Column {
        match ty {
            crate::schema::AttrType::Nominal { .. } => Column::Nominal(Vec::new()),
            crate::schema::AttrType::Numeric { .. } => Column::Number(Vec::new()),
            crate::schema::AttrType::Date { .. } => Column::Date(Vec::new()),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Nominal(v) => v.len(),
            Column::Number(v) => v.len(),
            Column::Date(v) => v.len(),
        }
    }

    /// `true` if the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserve capacity for `additional` more cells.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            Column::Nominal(v) => v.reserve(additional),
            Column::Number(v) => v.reserve(additional),
            Column::Date(v) => v.reserve(additional),
        }
    }

    /// The value at `row`; panics if out of range.
    #[inline]
    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Nominal(v) => v[row].map_or(Value::Null, Value::Nominal),
            Column::Number(v) => v[row].map_or(Value::Null, Value::Number),
            Column::Date(v) => v[row].map_or(Value::Null, Value::Date),
        }
    }

    /// Overwrite the value at `row`.
    ///
    /// Panics if the value kind does not match the column kind (NULL
    /// always matches) or if `row` is out of range. Kind safety is
    /// checked by [`crate::Table::set`] with a proper error before it
    /// delegates here.
    #[inline]
    pub fn set(&mut self, row: usize, value: Value) {
        match (self, value) {
            (Column::Nominal(v), Value::Null) => v[row] = None,
            (Column::Nominal(v), Value::Nominal(c)) => v[row] = Some(c),
            (Column::Number(v), Value::Null) => v[row] = None,
            (Column::Number(v), Value::Number(x)) => v[row] = Some(x),
            (Column::Date(v), Value::Null) => v[row] = None,
            (Column::Date(v), Value::Date(d)) => v[row] = Some(d),
            (col, v) => panic!("value {v:?} does not fit column kind {:?}", col.kind_name()),
        }
    }

    /// Append a value; same kind rules as [`Column::set`].
    #[inline]
    pub fn push(&mut self, value: Value) {
        match (self, value) {
            (Column::Nominal(v), Value::Null) => v.push(None),
            (Column::Nominal(v), Value::Nominal(c)) => v.push(Some(c)),
            (Column::Number(v), Value::Null) => v.push(None),
            (Column::Number(v), Value::Number(x)) => v.push(Some(x)),
            (Column::Date(v), Value::Null) => v.push(None),
            (Column::Date(v), Value::Date(d)) => v.push(Some(d)),
            (col, v) => panic!("value {v:?} does not fit column kind {:?}", col.kind_name()),
        }
    }

    /// Append every cell of `other` (which must be of the same kind) —
    /// the columnar bulk move behind [`crate::Table::append_rows`].
    pub fn append_from(&mut self, other: &Column) {
        match (self, other) {
            (Column::Nominal(v), Column::Nominal(o)) => v.extend_from_slice(o),
            (Column::Number(v), Column::Number(o)) => v.extend_from_slice(o),
            (Column::Date(v), Column::Date(o)) => v.extend_from_slice(o),
            (col, other) => panic!(
                "cannot append {:?} column to {:?} column",
                other.kind_name(),
                col.kind_name()
            ),
        }
    }

    /// Append the cells `start..end` of `other` (which must be of the
    /// same kind) — the range sibling of [`Column::append_from`],
    /// behind [`crate::Table::slice_rows`].
    pub fn append_range_from(&mut self, other: &Column, start: usize, end: usize) {
        match (self, other) {
            (Column::Nominal(v), Column::Nominal(o)) => v.extend_from_slice(&o[start..end]),
            (Column::Number(v), Column::Number(o)) => v.extend_from_slice(&o[start..end]),
            (Column::Date(v), Column::Date(o)) => v.extend_from_slice(&o[start..end]),
            (col, other) => panic!(
                "cannot append {:?} column to {:?} column",
                other.kind_name(),
                col.kind_name()
            ),
        }
    }

    /// Append cell `row` of `other` (which must be of the same kind) —
    /// the one-cell sibling of [`Column::append_from`], behind
    /// [`crate::Table::push_row_from`].
    #[inline]
    pub fn push_from(&mut self, other: &Column, row: usize) {
        match (self, other) {
            (Column::Nominal(v), Column::Nominal(o)) => v.push(o[row]),
            (Column::Number(v), Column::Number(o)) => v.push(o[row]),
            (Column::Date(v), Column::Date(o)) => v.push(o[row]),
            (col, other) => panic!(
                "cannot append {:?} column to {:?} column",
                other.kind_name(),
                col.kind_name()
            ),
        }
    }

    /// Remove the cell at `row`, shifting later cells up (order-
    /// preserving, O(n)).
    pub fn remove(&mut self, row: usize) {
        match self {
            Column::Nominal(v) => {
                v.remove(row);
            }
            Column::Number(v) => {
                v.remove(row);
            }
            Column::Date(v) => {
                v.remove(row);
            }
        }
    }

    /// Duplicate the cell at `row`, appending the copy at the end.
    pub fn push_copy_of(&mut self, row: usize) {
        match self {
            Column::Nominal(v) => {
                let x = v[row];
                v.push(x);
            }
            Column::Number(v) => {
                let x = v[row];
                v.push(x);
            }
            Column::Date(v) => {
                let x = v[row];
                v.push(x);
            }
        }
    }

    /// Count of NULL cells.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Nominal(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Number(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Date(v) => v.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Short kind name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Column::Nominal(_) => "nominal",
            Column::Number(_) => "number",
            Column::Date(_) => "date",
        }
    }

    /// The cell at `row` as a [`TypedCell`] (one enum match instead of
    /// a `Value` round-trip per accessor call).
    #[inline]
    pub fn typed_cell(&self, row: usize) -> TypedCell {
        match self {
            Column::Nominal(v) => TypedCell::Nominal(v[row]),
            Column::Number(v) => TypedCell::Numeric(v[row]),
            Column::Date(v) => TypedCell::Numeric(v[row].map(|d| d as f64)),
        }
    }

    /// Direct access to the codes of a nominal column.
    pub fn as_nominal(&self) -> Option<&[Option<u32>]> {
        match self {
            Column::Nominal(v) => Some(v),
            _ => None,
        }
    }

    /// Direct access to the payloads of a number column.
    pub fn as_number(&self) -> Option<&[Option<f64>]> {
        match self {
            Column::Number(v) => Some(v),
            _ => None,
        }
    }

    /// Direct access to the day numbers of a date column.
    pub fn as_date(&self) -> Option<&[Option<i64>]> {
        match self {
            Column::Date(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    #[test]
    fn push_get_set_round_trip() {
        let mut c = Column::for_type(&AttrType::Nominal { labels: vec!["a".into()] });
        c.push(Value::Nominal(0));
        c.push(Value::Null);
        assert_eq!(c.get(0), Value::Nominal(0));
        assert_eq!(c.get(1), Value::Null);
        c.set(1, Value::Nominal(5));
        assert_eq!(c.get(1), Value::Nominal(5));
        assert_eq!(c.len(), 2);
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit column kind")]
    fn kind_mismatch_panics() {
        let mut c = Column::Number(vec![]);
        c.push(Value::Nominal(0));
    }

    #[test]
    fn remove_preserves_order() {
        let mut c = Column::Number(vec![Some(1.0), Some(2.0), Some(3.0)]);
        c.remove(1);
        assert_eq!(c.get(0), Value::Number(1.0));
        assert_eq!(c.get(1), Value::Number(3.0));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn typed_per_cell_accessors_mirror_value_accessors() {
        let nom = Column::Nominal(vec![Some(3), None]);
        let num = Column::Number(vec![Some(2.5), None]);
        let date = Column::Date(vec![Some(7), None]);
        for (col, row) in [(&nom, 0), (&nom, 1), (&num, 0), (&num, 1), (&date, 0), (&date, 1)] {
            let cell = col.typed_cell(row);
            assert_eq!(cell.as_nominal(), col.get(row).as_nominal());
            assert_eq!(cell.as_numeric(), col.get(row).as_numeric());
        }
        assert_eq!(nom.typed_cell(0).as_nominal(), Some(3));
        assert_eq!(num.typed_cell(0).as_numeric(), Some(2.5));
        assert_eq!(date.typed_cell(0).as_numeric(), Some(7.0));
        assert_eq!(date.typed_cell(1).as_numeric(), None);
    }

    #[test]
    fn push_copy_duplicates() {
        let mut c = Column::Date(vec![Some(7), None]);
        c.push_copy_of(0);
        c.push_copy_of(1);
        assert_eq!(c.get(2), Value::Date(7));
        assert_eq!(c.get(3), Value::Null);
    }
}
