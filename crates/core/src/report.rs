//! Findings, audit reports and the `findings.bin` codec of
//! `dq detect --checkpoint`.
//!
//! The QUIS audit of sec. 6.2 "revealed about 6000 suspicious records.
//! These records were ranked according to their associated error
//! confidence and cross-checked by domain experts selectively" —
//! [`AuditReport`] is that ranked list. A record is suspicious when some
//! classifier flagged it (its overall error confidence of Def. 8 is
//! positive and reaches the minimal confidence), so the report holds
//! nothing per audited row.

use dq_table::{AttrIdx, RowIdx, Schema, Value};
use std::fmt;

/// One deviation flagged by one classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Row in the audited table.
    pub row: RowIdx,
    /// The class attribute whose classifier flagged the record.
    pub attr: AttrIdx,
    /// The observed (suspicious) value.
    pub observed: Value,
    /// The value the classifier proposes instead (sec. 5.3: "the
    /// predicted values generated by the classifiers induced can be
    /// employed directly as suggested corrections").
    pub proposed: Value,
    /// Error confidence wrt this classifier (Def. 7).
    pub confidence: f64,
    /// Number of training instances the prediction is based on.
    pub support: f64,
}

impl Finding {
    /// Render the finding with names/labels from `schema`.
    pub fn render(&self, schema: &Schema) -> String {
        format!(
            "row {}: {} = {} suspicious (conf {:.2}%, n={:.0}); suggest {}",
            self.row,
            schema.attr(self.attr).name,
            schema.display_value(self.attr, &self.observed),
            self.confidence * 100.0,
            self.support,
            schema.display_value(self.attr, &self.proposed),
        )
    }
}

/// The result of a deviation-detection pass over a table: the ranked
/// findings and the number of rows scanned. Its size is O(findings),
/// whatever the number of rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// All findings at or above the minimal confidence, sorted by
    /// descending confidence.
    pub findings: Vec<Finding>,
    /// The minimal error confidence the report was filtered with.
    pub min_confidence: f64,
    n_rows: usize,
    /// The rows with at least one finding, ascending and distinct.
    flagged: Vec<RowIdx>,
}

impl AuditReport {
    /// Assemble the report of an `n_rows`-row scan from its findings
    /// (in any order): rank them and index their rows.
    pub fn new(mut findings: Vec<Finding>, n_rows: usize, min_confidence: f64) -> Self {
        findings.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then(b.support.total_cmp(&a.support))
                .then(a.row.cmp(&b.row))
        });
        let mut flagged: Vec<RowIdx> = findings.iter().map(|f| f.row).collect();
        flagged.sort_unstable();
        flagged.dedup();
        AuditReport { findings, min_confidence, n_rows, flagged }
    }

    /// Number of rows in the audited table.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// `true` if the row is marked suspicious: some classifier flagged
    /// it, i.e. its overall error confidence is positive and reaches the
    /// minimal confidence. O(log findings).
    pub fn is_flagged(&self, row: RowIdx) -> bool {
        self.flagged.binary_search(&row).is_ok()
    }

    /// Number of suspicious rows.
    pub fn n_suspicious(&self) -> usize {
        self.flagged.len()
    }

    /// The highest-confidence finding for a row, if any.
    pub fn best_finding_for(&self, row: RowIdx) -> Option<&Finding> {
        // findings are sorted by confidence, so the first match wins.
        self.findings.iter().find(|f| f.row == row)
    }

    /// The top `n` findings (the expert cross-check list of sec. 6.2).
    pub fn top(&self, n: usize) -> &[Finding] {
        &self.findings[..n.min(self.findings.len())]
    }

    /// Render the top `n` findings, one per line.
    pub fn render_top(&self, schema: &Schema, n: usize) -> String {
        self.top(n).iter().map(|f| f.render(schema)).collect::<Vec<_>>().join("\n")
    }

    /// Render the full ranked report as CSV (one row per finding,
    /// values shown with the schema's labels, floats at full
    /// round-trip precision). This is the `dq detect --report` output
    /// and the byte-comparison surface of the streaming-equivalence
    /// guarantee.
    pub fn to_csv(&self, schema: &Schema) -> String {
        let mut out = String::from("row,attribute,observed,proposed,confidence,support\n");
        for f in &self.findings {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                f.row,
                schema.attr(f.attr).name,
                schema.display_value(f.attr, &f.observed),
                schema.display_value(f.attr, &f.proposed),
                f.confidence,
                f.support
            ));
        }
        out
    }
}

/// Byte length of one [`encode_finding`] record.
pub const FINDING_RECORD: usize = 50;

/// Why [`decode_findings`] rejects its bytes; `record` is the index of
/// the offending record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingsDecodeError {
    /// `len` bytes is not a whole number of records: a torn write.
    TornLength { len: usize },
    /// A value's `tag` encodes no [`Value`] variant, or its nominal
    /// `payload` is wider than a `u32` code.
    BadValue { record: usize, tag: u8, payload: u64 },
    /// The record names attribute `attr` of an `n_attrs`-attribute schema.
    AttrOutOfRange { record: usize, attr: u64, n_attrs: usize },
    /// The record names row `row`, at or past the `cursor` rows scanned.
    RowPastCursor { record: usize, row: u64, cursor: usize },
}

impl fmt::Display for FindingsDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::TornLength { len } => {
                write!(f, "{len} bytes is not a whole number of {FINDING_RECORD}-byte records")
            }
            Self::BadValue { record, tag, payload } => {
                write!(f, "record {record} holds a bad value (tag {tag}, payload {payload})")
            }
            Self::AttrOutOfRange { record, attr, n_attrs } => {
                write!(f, "record {record} names attribute {attr} of a {n_attrs}-attribute schema")
            }
            Self::RowPastCursor { record, row, cursor } => {
                write!(f, "record {record} names row {row}, past the {cursor} journaled rows")
            }
        }
    }
}

impl std::error::Error for FindingsDecodeError {}

fn encode_value(value: &Value, out: &mut Vec<u8>) {
    let (tag, payload) = match *value {
        Value::Null => (0u8, 0u64),
        Value::Nominal(code) => (1, u64::from(code)),
        Value::Number(x) => (2, x.to_bits()),
        Value::Date(d) => (3, d as u64),
    };
    out.push(tag);
    out.extend_from_slice(&payload.to_le_bytes());
}

fn decode_value(record: usize, tag: u8, payload: u64) -> Result<Value, FindingsDecodeError> {
    match (tag, u32::try_from(payload)) {
        (0, _) => Ok(Value::Null),
        (1, Ok(code)) => Ok(Value::Nominal(code)),
        (2, _) => Ok(Value::Number(f64::from_bits(payload))),
        (3, _) => Ok(Value::Date(payload as i64)),
        _ => Err(FindingsDecodeError::BadValue { record, tag, payload }),
    }
}

/// Append one finding as a fixed [`FINDING_RECORD`]-byte record: row,
/// attr, observed, proposed, confidence bits, support bits (all
/// little-endian; values as tag byte + 8-byte payload).
pub fn encode_finding(f: &Finding, out: &mut Vec<u8>) {
    out.extend_from_slice(&(f.row as u64).to_le_bytes());
    out.extend_from_slice(&(f.attr as u64).to_le_bytes());
    encode_value(&f.observed, out);
    encode_value(&f.proposed, out);
    out.extend_from_slice(&f.confidence.to_bits().to_le_bytes());
    out.extend_from_slice(&f.support.to_bits().to_le_bytes());
}

/// Decode a run of [`encode_finding`] records. Every record must name
/// an attribute of the `n_attrs`-attribute schema and a row below
/// `cursor`, the number of rows scanned — anything else is corruption,
/// never a finding.
pub fn decode_findings(
    bytes: &[u8],
    n_attrs: usize,
    cursor: usize,
) -> Result<Vec<Finding>, FindingsDecodeError> {
    if bytes.len() % FINDING_RECORD != 0 {
        return Err(FindingsDecodeError::TornLength { len: bytes.len() });
    }
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let mut findings = Vec::with_capacity(bytes.len() / FINDING_RECORD);
    for record in 0..bytes.len() / FINDING_RECORD {
        let base = record * FINDING_RECORD;
        let (row, attr) = (u64_at(base), u64_at(base + 8));
        if attr >= n_attrs as u64 {
            return Err(FindingsDecodeError::AttrOutOfRange { record, attr, n_attrs });
        }
        if row >= cursor as u64 {
            return Err(FindingsDecodeError::RowPastCursor { record, row, cursor });
        }
        findings.push(Finding {
            row: row as usize,
            attr: attr as usize,
            observed: decode_value(record, bytes[base + 16], u64_at(base + 17))?,
            proposed: decode_value(record, bytes[base + 25], u64_at(base + 26))?,
            confidence: f64::from_bits(u64_at(base + 34)),
            support: f64::from_bits(u64_at(base + 42)),
        });
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_table::SchemaBuilder;

    fn report() -> AuditReport {
        let findings = vec![
            Finding {
                row: 2,
                attr: 1,
                observed: Value::Nominal(1),
                proposed: Value::Nominal(0),
                confidence: 0.92,
                support: 9530.0,
            },
            Finding {
                row: 0,
                attr: 0,
                observed: Value::Nominal(1),
                proposed: Value::Nominal(0),
                confidence: 0.9995,
                support: 16_118.0,
            },
            Finding {
                row: 2,
                attr: 0,
                observed: Value::Nominal(0),
                proposed: Value::Nominal(1),
                confidence: 0.85,
                support: 100.0,
            },
        ];
        AuditReport::new(findings, 3, 0.8)
    }

    #[test]
    fn findings_ranked_by_confidence() {
        let r = report();
        assert_eq!(r.findings[0].confidence, 0.9995);
        assert_eq!(r.findings[1].confidence, 0.92);
        assert_eq!(r.findings[2].confidence, 0.85);
        assert_eq!(r.top(2).len(), 2);
        assert_eq!(r.top(99).len(), 3);
    }

    #[test]
    fn flagging_respects_min_confidence() {
        let r = report();
        assert!(r.is_flagged(0));
        assert!(!r.is_flagged(1));
        assert!(r.is_flagged(2));
        assert_eq!(r.n_suspicious(), 2);
        assert_eq!(r.n_rows(), 3);
        assert!(!r.is_flagged(3), "a row past the scan is not flagged");
    }

    #[test]
    fn best_finding_is_highest_confidence() {
        let r = report();
        let best = r.best_finding_for(2).unwrap();
        assert_eq!(best.confidence, 0.92);
        assert!(r.best_finding_for(1).is_none());
    }

    #[test]
    fn csv_rendering_is_ranked_and_labelled() {
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .build()
            .unwrap();
        let csv = report().to_csv(&schema);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "row,attribute,observed,proposed,confidence,support");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("0,brv,501,404,0.9995,"), "got {}", lines[1]);
        assert!(lines[2].starts_with("2,gbm,"), "got {}", lines[2]);
    }

    #[test]
    fn rendering_uses_labels() {
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .build()
            .unwrap();
        let r = report();
        let text = r.findings[0].render(&schema);
        assert!(text.contains("brv = 501"), "got {text}");
        assert!(text.contains("suggest 404"), "got {text}");
        assert_eq!(r.render_top(&schema, 2).lines().count(), 2);
    }

    #[test]
    fn every_value_tag_round_trips_through_the_codec() {
        let values = [
            Value::Null,
            Value::Nominal(0),
            Value::Nominal(u32::MAX),
            Value::Number(-0.0),
            Value::Number(f64::NAN),
            Value::Number(1e300),
            Value::Date(-719_162),
            Value::Date(i64::MAX),
        ];
        let mut findings = Vec::new();
        for (i, &observed) in values.iter().enumerate() {
            let proposed = values[(i + 3) % values.len()];
            let (confidence, support) = (0.8 + i as f64 / 100.0, 1e4 + i as f64);
            findings.push(Finding {
                row: i * 7,
                attr: i % 3,
                observed,
                proposed,
                confidence,
                support,
            });
        }
        let mut bytes = Vec::new();
        for f in &findings {
            encode_finding(f, &mut bytes);
        }
        assert_eq!(bytes.len(), findings.len() * FINDING_RECORD);
        let decoded = decode_findings(&bytes, 3, 7 * values.len()).unwrap();
        // Bitwise, so NaN and -0.0 count as round-tripped.
        let bits = |v: &Value| match *v {
            Value::Number(x) => (2, x.to_bits()),
            Value::Nominal(c) => (1, u64::from(c)),
            Value::Date(d) => (3, d as u64),
            Value::Null => (0, 0),
        };
        assert_eq!(decoded.len(), findings.len());
        for (a, b) in decoded.iter().zip(&findings) {
            assert_eq!((a.row, a.attr), (b.row, b.attr));
            assert_eq!(
                (bits(&a.observed), bits(&a.proposed)),
                (bits(&b.observed), bits(&b.proposed))
            );
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
            assert_eq!(a.support.to_bits(), b.support.to_bits());
        }
        assert_eq!(decode_findings(&[], 3, 0), Ok(Vec::new()));
    }

    #[test]
    fn corrupt_findings_bytes_are_typed_errors() {
        let f = Finding {
            row: 4,
            attr: 1,
            observed: Value::Nominal(1),
            proposed: Value::Nominal(0),
            confidence: 0.9,
            support: 20.0,
        };
        let mut record = Vec::new();
        encode_finding(&f, &mut record);
        let patched = |at: usize, bytes: &[u8]| {
            let mut r = record.clone();
            r[at..at + bytes.len()].copy_from_slice(bytes);
            r
        };
        assert_eq!(
            decode_findings(&record[..FINDING_RECORD - 1], 2, 5),
            Err(FindingsDecodeError::TornLength { len: FINDING_RECORD - 1 })
        );
        assert_eq!(
            decode_findings(&patched(16, &[9]), 2, 5),
            Err(FindingsDecodeError::BadValue { record: 0, tag: 9, payload: 1 })
        );
        let wide = u64::from(u32::MAX) + 1;
        assert_eq!(
            decode_findings(&patched(26, &wide.to_le_bytes()), 2, 5),
            Err(FindingsDecodeError::BadValue { record: 0, tag: 1, payload: wide })
        );
        assert_eq!(
            decode_findings(&record, 1, 5),
            Err(FindingsDecodeError::AttrOutOfRange { record: 0, attr: 1, n_attrs: 1 })
        );
        let two = [record.clone(), patched(0, &9u64.to_le_bytes())].concat();
        let err = decode_findings(&two, 2, 5).unwrap_err();
        assert_eq!(err, FindingsDecodeError::RowPastCursor { record: 1, row: 9, cursor: 5 });
        assert_eq!(err.to_string(), "record 1 names row 9, past the 5 journaled rows");
    }
}
