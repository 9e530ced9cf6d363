//! Findings and audit reports.
//!
//! The QUIS audit of sec. 6.2 "revealed about 6000 suspicious records.
//! These records were ranked according to their associated error
//! confidence and cross-checked by domain experts selectively" —
//! [`AuditReport`] is that ranked list, plus the per-record overall
//! error confidence of Def. 8 (the maximum over all classifiers).

use dq_table::{AttrIdx, RowIdx, Schema, Value};

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

/// The result of a deviation-detection pass over a table.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// All findings at or above the minimal confidence, sorted by
    /// descending confidence.
    pub findings: Vec<Finding>,
    /// Per-row overall error confidence (Def. 8: max over classifiers),
    /// for *all* rows, including unflagged ones.
    pub record_confidence: Vec<f64>,
    /// The minimal error confidence the report was filtered with.
    pub min_confidence: f64,
}

impl AuditReport {
    pub(crate) fn new(
        mut findings: Vec<Finding>,
        record_confidence: Vec<f64>,
        min_confidence: f64,
    ) -> Self {
        findings.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then(b.support.total_cmp(&a.support))
                .then(a.row.cmp(&b.row))
        });
        AuditReport { findings, record_confidence, min_confidence }
    }

    /// Number of rows in the audited table.
    pub fn n_rows(&self) -> usize {
        self.record_confidence.len()
    }

    /// `true` if the row's overall error confidence reaches the
    /// minimal confidence — the row is marked suspicious.
    pub fn is_flagged(&self, row: RowIdx) -> bool {
        self.record_confidence[row] >= self.min_confidence
    }

    /// Number of suspicious rows.
    pub fn n_suspicious(&self) -> usize {
        self.record_confidence.iter().filter(|&&c| c >= self.min_confidence).count()
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
        AuditReport::new(findings, vec![0.9995, 0.1, 0.92], 0.8)
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
}
