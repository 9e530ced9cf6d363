//! A versioned text format for [`Schema`]s, and the schema fingerprint.
//!
//! Persisted artifacts (CSV datasets on disk, saved structure models)
//! are only meaningful relative to a schema, so the schema itself must
//! be a first-class file: `dq generate` writes one next to its CSVs,
//! `dq induce`/`dq detect` read it back, and saved structure models
//! embed its **fingerprint** so a model can never silently audit the
//! wrong relation.
//!
//! The format is line-oriented and human-diffable:
//!
//! ```text
//! dq-schema v1
//! color: nominal(red|green|blue)
//! size: numeric [0, 100]
//! k: integer [0, 20]
//! built: date [2000-01-01, 2010-01-01]
//! ```
//!
//! Blank lines and `#` comments are ignored when reading. Numeric
//! bounds round-trip exactly (Rust's shortest-representation float
//! formatting); dates are ISO days. Names must not contain `:` or
//! newlines, labels must not contain `|`, `,` or newlines — the same
//! no-quoting stance as the CSV module.
//!
//! [`fingerprint`] is the FNV-1a 64-bit hash of the canonical rendered
//! text, so two schemas agree on their fingerprint iff they render
//! identically (same names, same order, same domains).

use crate::builder::SchemaBuilder;
use crate::date::parse_iso;
use crate::error::TableError;
use crate::schema::{AttrType, Schema};
use crate::value::Value;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// The version line every schema file starts with.
const HEADER: &str = "dq-schema v1";

/// Render `schema` in the canonical v1 text format.
pub fn render_schema(schema: &Schema) -> Result<String, TableError> {
    let mut out = String::from(HEADER);
    out.push('\n');
    for attr in schema.attributes() {
        if attr.name.contains(':') || attr.name.contains('\n') {
            return Err(TableError::SchemaText(format!(
                "attribute name `{}` contains `:` or a newline and cannot be serialized",
                attr.name
            )));
        }
        out.push_str(&attr.name);
        out.push_str(": ");
        match &attr.ty {
            AttrType::Nominal { labels } => {
                for l in labels {
                    if l.is_empty() || l.contains('|') || l.contains(',') || l.contains('\n') {
                        return Err(TableError::SchemaText(format!(
                            "label `{l}` of `{}` is empty or contains `|`, `,` or a newline",
                            attr.name
                        )));
                    }
                    if l.starts_with('#') {
                        return Err(TableError::SchemaText(format!(
                            "label `{l}` of `{}` starts with `#`, which is reserved for the \
                             CSV out-of-label escape",
                            attr.name
                        )));
                    }
                }
                out.push_str(&format!("nominal({})", labels.join("|")));
            }
            AttrType::Numeric { min, max, integer } => {
                let kind = if *integer { "integer" } else { "numeric" };
                out.push_str(&format!("{kind} [{min}, {max}]"));
            }
            AttrType::Date { min, max } => {
                out.push_str(&format!("date [{}, {}]", Value::Date(*min), Value::Date(*max)));
            }
        }
        out.push('\n');
    }
    Ok(out)
}

/// Write `schema` in the canonical v1 text format.
pub fn write_schema<W: Write>(schema: &Schema, mut out: W) -> Result<(), TableError> {
    out.write_all(render_schema(schema)?.as_bytes())?;
    Ok(())
}

/// Read a schema from its v1 text form.
pub fn read_schema<R: BufRead>(input: R) -> Result<Arc<Schema>, TableError> {
    let mut lines = input.lines();
    let first = lines
        .next()
        .transpose()?
        .ok_or_else(|| TableError::SchemaText("empty schema file".into()))?;
    if first.trim_end_matches('\r') != HEADER {
        return Err(TableError::SchemaText(format!(
            "expected header `{HEADER}`, got `{}`",
            first.trim_end()
        )));
    }
    let mut builder = SchemaBuilder::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        let line = line.trim_end_matches('\r');
        let line_no = i + 2;
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let (name, decl) = line.split_once(": ").ok_or_else(|| {
            TableError::SchemaText(format!("line {line_no}: expected `name: type`"))
        })?;
        builder = parse_decl(builder, name, decl.trim(), line_no)?;
    }
    builder.build()
}

fn parse_decl(
    builder: SchemaBuilder,
    name: &str,
    decl: &str,
    line_no: usize,
) -> Result<SchemaBuilder, TableError> {
    let bad = |msg: String| TableError::SchemaText(format!("line {line_no}: {msg}"));
    if let Some(rest) = decl.strip_prefix("nominal(") {
        let labels = rest
            .strip_suffix(')')
            .ok_or_else(|| bad("missing `)` after nominal label list".into()))?;
        // Mirror the write-side label rules: an empty label would be
        // indistinguishable from NULL in CSV cells, and `#…` would
        // collide with the out-of-label escape (a hand-written `#5`
        // label would silently read back as code 5).
        for l in labels.split('|') {
            if l.is_empty() {
                return Err(bad("empty nominal label (would be ambiguous with NULL)".into()));
            }
            if l.starts_with('#') {
                return Err(bad(format!(
                    "label `{l}` starts with `#`, which is reserved for the CSV out-of-label escape"
                )));
            }
        }
        return Ok(builder.nominal(name, labels.split('|')));
    }
    for kind in ["numeric", "integer", "date"] {
        if let Some(rest) = decl.strip_prefix(kind) {
            let range = rest
                .trim()
                .strip_prefix('[')
                .and_then(|r| r.strip_suffix(']'))
                .ok_or_else(|| bad(format!("expected `{kind} [min, max]`")))?;
            let (lo, hi) = range
                .split_once(", ")
                .ok_or_else(|| bad("expected `min, max` separated by `, `".into()))?;
            return match kind {
                "date" => {
                    let lo =
                        parse_iso(lo).ok_or_else(|| bad(format!("`{lo}` is not an ISO date")))?;
                    let hi =
                        parse_iso(hi).ok_or_else(|| bad(format!("`{hi}` is not an ISO date")))?;
                    let (ly, lm, ld) = crate::date::civil_from_days(lo);
                    let (hy, hm, hd) = crate::date::civil_from_days(hi);
                    Ok(builder.date_ymd(name, (ly, lm, ld), (hy, hm, hd)))
                }
                _ => {
                    let lo: f64 = lo.parse().map_err(|_| bad(format!("`{lo}` is not a number")))?;
                    let hi: f64 = hi.parse().map_err(|_| bad(format!("`{hi}` is not a number")))?;
                    Ok(if kind == "integer" {
                        builder.integer(name, lo, hi)
                    } else {
                        builder.numeric(name, lo, hi)
                    })
                }
            };
        }
    }
    Err(bad(format!("unknown attribute type in `{decl}`")))
}

/// FNV-1a 64-bit fingerprint of the canonical schema text.
///
/// Serialization-failure cases (names/labels the text format cannot
/// carry) fall back to hashing the debug rendering, so the fingerprint
/// is total — but such schemas cannot be persisted anyway.
pub fn fingerprint(schema: &Schema) -> u64 {
    let text = render_schema(schema).unwrap_or_else(|_| format!("{schema:?}"));
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;

    fn schema() -> Arc<Schema> {
        SchemaBuilder::new()
            .nominal("color", ["red", "green", "blue"])
            .numeric("size", -0.5, 100.25)
            .integer("k", 0.0, 20.0)
            .date_ymd("built", (2000, 1, 1), (2010, 6, 15))
            .build()
            .unwrap()
    }

    #[test]
    fn round_trip() {
        let s = schema();
        let mut buf = Vec::new();
        write_schema(&s, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("dq-schema v1\n"));
        assert!(text.contains("color: nominal(red|green|blue)\n"), "got:\n{text}");
        assert!(text.contains("size: numeric [-0.5, 100.25]\n"), "got:\n{text}");
        assert!(text.contains("built: date [2000-01-01, 2010-06-15]\n"), "got:\n{text}");
        let back = read_schema(buf.as_slice()).unwrap();
        assert_eq!(*back, *s);
        // The canonical rendering is stable across a round-trip.
        assert_eq!(render_schema(&back).unwrap(), text);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "dq-schema v1\n\n# engine codes\na: nominal(x|y)\n";
        let s = read_schema(text.as_bytes()).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.attr(0).name, "a");
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(read_schema("".as_bytes()).is_err());
        assert!(read_schema("dq-schema v99\n".as_bytes()).is_err());
        assert!(read_schema("dq-schema v1\nno-colon-here\n".as_bytes()).is_err());
        assert!(read_schema("dq-schema v1\na: nominal(x\n".as_bytes()).is_err());
        assert!(read_schema("dq-schema v1\na: numeric [1, 2\n".as_bytes()).is_err());
        assert!(read_schema("dq-schema v1\na: numeric [x, 2]\n".as_bytes()).is_err());
        assert!(read_schema("dq-schema v1\na: date [2000-01-01, soon]\n".as_bytes()).is_err());
        assert!(read_schema("dq-schema v1\na: blob [1, 2]\n".as_bytes()).is_err());
        // Labels the CSV layer cannot carry are rejected on read too:
        // `#…` collides with the out-of-label escape, `` with NULL.
        assert!(read_schema("dq-schema v1\na: nominal(#5|y)\n".as_bytes()).is_err());
        assert!(read_schema("dq-schema v1\na: nominal(x|)\n".as_bytes()).is_err());
        // Duplicate names are caught by Schema validation.
        assert!(read_schema("dq-schema v1\na: nominal(x)\na: nominal(y)\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_unserializable_schemas() {
        let s = SchemaBuilder::new().nominal("a", ["with|pipe"]).build().unwrap();
        assert!(matches!(render_schema(&s), Err(TableError::SchemaText(_))));
        let s = SchemaBuilder::new().nominal("a:b", ["x"]).build().unwrap();
        assert!(matches!(render_schema(&s), Err(TableError::SchemaText(_))));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = schema();
        let b = schema();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), a.fingerprint());
        // Any domain difference changes the fingerprint.
        let c = SchemaBuilder::new()
            .nominal("color", ["red", "green"])
            .numeric("size", -0.5, 100.25)
            .integer("k", 0.0, 20.0)
            .date_ymd("built", (2000, 1, 1), (2010, 6, 15))
            .build()
            .unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&c));
        // Attribute order matters (positional models depend on it).
        let d = SchemaBuilder::new().nominal("x", ["a"]).nominal("y", ["a"]).build().unwrap();
        let e = SchemaBuilder::new().nominal("y", ["a"]).nominal("x", ["a"]).build().unwrap();
        assert_ne!(fingerprint(&d), fingerprint(&e));
    }
}
