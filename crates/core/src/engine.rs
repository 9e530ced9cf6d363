//! The resident audit engine: detection state, `Sync`-shareable.
//!
//! The paper separates structure induction from deviation detection so
//! that "the time-consuming structure induction can be prepared
//! off-line, new data can be checked for deviations and loaded
//! quickly". [`AuditEngine`] is the serve-forever half of that split
//! made concrete: it owns everything detection needs — the
//! [`StructureModel`] (whose [`AttrModel`]s carry their compiled
//! [`FlatTree`](dq_mining::FlatTree) evaluators) and the relation's
//! [`Schema`] — and exposes every detection entry point through
//! `&self`, so one engine can answer any number of concurrent
//! requests. Nothing is compiled at construction beyond what loading
//! the model already built, so an engine is ready as soon as its model
//! is. The type is `Send + Sync` by construction (asserted at compile
//! time below): share it behind an `Arc` across however many server
//! threads you like.
//!
//! Every detection path runs the one columnar `scan_chunk` through
//! `scan_sharded`; `scan_chunk_reference` (boxed trees over
//! materialized records) is kept only as the ground truth it is checked
//! against. A detection holds one batch plus its findings: the per-row
//! overall error confidence (Def. 8) exists only per batch, through
//! [`AuditEngine::scan_batch`], and is never accumulated. The batch
//! [`Auditor`](crate::Auditor) delegates to the same internals, so an
//! engine's answers are **byte-identical** to the batch auditor's — the
//! invariant `tests/serve_equivalence.rs` pins under concurrency.

use crate::auditor::{materialize_class, AttrModel, StructureModel};
use crate::error::AuditError;
use crate::report::{AuditReport, Finding};
use dq_exec::{Parallelism, WorkerPool};
use dq_table::{BatchSource, CsvChunkReader, RowSlice, Schema, Table, TableError, Value};
use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;

// The whole point of the engine: it must be shareable across request
// threads without locks. Compile-time, not a test.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AuditEngine>();
};

/// A loaded structure model plus its schema, resident and ready to
/// answer detection requests concurrently.
///
/// Every entry point takes `&self` and allocates only per-request
/// state, so the engine is the train-once/audit-forever substrate of
/// `dq serve`.
#[derive(Debug)]
pub struct AuditEngine {
    model: StructureModel,
    schema: Arc<Schema>,
    /// Worker threads *per request* (the [`AuditConfig::threads`]
    /// semantics, as a shared [`Parallelism`] knob). A server answering
    /// many concurrent requests wants [`Parallelism::serial`]:
    /// concurrency comes from the request fan-out, not from sharding
    /// each scan.
    threads: Parallelism,
}

impl AuditEngine {
    /// Build an engine from an induced (or loaded) model and its
    /// schema.
    pub fn new(model: StructureModel, schema: Arc<Schema>) -> Self {
        AuditEngine { model, schema, threads: Parallelism::serial() }
    }

    /// Load a persisted `.dqm` model against `schema` and make it
    /// resident (validates the format version, the schema fingerprint
    /// and every rule line — see [`crate::model_io`]).
    pub fn load<R: BufRead>(schema: Arc<Schema>, input: R) -> Result<Self, AuditError> {
        let model = StructureModel::load(&schema, input)?;
        Ok(AuditEngine::new(model, schema))
    }

    /// Load from a `.dqm` file path.
    pub fn load_from_path(schema: Arc<Schema>, path: impl AsRef<Path>) -> Result<Self, AuditError> {
        let model = StructureModel::load_from_path(&schema, path)?;
        Ok(AuditEngine::new(model, schema))
    }

    /// Set the per-request worker-thread knob (accepts a
    /// [`Parallelism`], an explicit `usize`, or the legacy
    /// `Option<usize>` where `None` = hardware parallelism honouring
    /// `DQ_THREADS`). Results are identical at every thread count.
    pub fn with_threads(mut self, threads: impl Into<Parallelism>) -> Self {
        self.threads = threads.into();
        self
    }

    /// The resident structure model.
    pub fn model(&self) -> &StructureModel {
        &self.model
    }

    /// The relation schema the model audits.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The schema fingerprint requests are routed by.
    pub fn fingerprint(&self) -> u64 {
        self.schema.fingerprint()
    }

    /// **Deviation detection** over any [`BatchSource`] — an in-memory
    /// table's [`Table::batches`], a [`CsvChunkReader`], a generator —
    /// byte-identical to [`crate::Auditor::detect`] over the
    /// concatenated batches at every batch size and thread count. The
    /// first failing batch aborts the scan with its error. It holds one
    /// batch plus the findings so far.
    pub fn detect(&self, mut batches: impl BatchSource) -> Result<AuditReport, AuditError> {
        let pool = self.threads.pool();
        let mut findings = Vec::new();
        let mut rows = 0;
        while let Some(batch) = batches.next_batch()? {
            let (f, _) =
                scan_sharded(pool, &batch, rows, |chunk| scan_chunk(&self.model, chunk, false));
            findings.extend(f);
            rows += batch.n_rows();
        }
        Ok(self.report(findings, rows))
    }

    /// Scan one batch whose first row has global index `row_offset`,
    /// returning the batch's findings (row indices globalized) and its
    /// per-row overall error confidences (Def. 8) in row order — the
    /// incremental unit of a `dq detect`. The arithmetic is exactly the
    /// streaming scan's, so accumulating the findings across batches
    /// and finishing with [`AuditEngine::report`] is byte-identical to
    /// one uninterrupted [`AuditEngine::detect`].
    pub fn scan_batch(&self, batch: &Table, row_offset: usize) -> (Vec<Finding>, Vec<f64>) {
        scan_sharded(self.threads.pool(), batch, row_offset, |chunk| {
            scan_chunk(&self.model, chunk, true)
        })
    }

    /// Assemble the final report of an `n_rows`-row scan from the
    /// findings accumulated by [`AuditEngine::scan_batch`] — the same
    /// rank ordering (and min-confidence threshold) every other
    /// detection entry point applies, so a resumed audit's report is
    /// byte-identical to an uninterrupted one's.
    pub fn report(&self, findings: Vec<Finding>, n_rows: usize) -> AuditReport {
        AuditReport::new(findings, n_rows, self.model.config().min_confidence)
    }

    /// [`AuditEngine::report`] over `confidences.len()` rows, kept only
    /// for the perfbench harness, which still collects them.
    pub fn report_from_parts(&self, findings: Vec<Finding>, confidences: Vec<f64>) -> AuditReport {
        self.report(findings, confidences.len())
    }

    /// Audit a CSV stream (header + records) end to end: chunks of
    /// `chunk_rows` rows flow through [`CsvChunkReader`] into
    /// [`AuditEngine::detect`], at O(chunk) memory.
    pub fn detect_csv<R: BufRead>(
        &self,
        input: R,
        chunk_rows: usize,
    ) -> Result<AuditReport, AuditError> {
        let reader = CsvChunkReader::new(self.schema.clone(), input, chunk_rows)?;
        self.detect(reader)
    }

    /// Audit a single headerless CSV record line. The line is parsed
    /// exactly like a data row of a one-row CSV body (cell errors
    /// report the synthetic stream's line numbers: the implied header
    /// is line 1, the record line 2). A line that does not yield
    /// exactly one record — an empty one, or one with an embedded line
    /// break — is a [`TableError::Csv`] error, never an empty report.
    pub fn detect_record_csv(&self, line: &str) -> Result<AuditReport, AuditError> {
        let names: Vec<&str> = self.schema.attributes().iter().map(|a| a.name.as_str()).collect();
        let body = format!("{}\n{}\n", names.join(","), line.trim_end_matches(['\r', '\n']));
        let report = self.detect_csv(body.as_bytes(), 1)?;
        match report.n_rows() {
            1 => Ok(report),
            n => Err(TableError::Csv(format!("expected exactly one record, found {n}")).into()),
        }
    }
}

/// The one shard–scan–merge loop behind every detection path: split
/// `table` into one row chunk per worker of `pool`, scan the chunks
/// with `scan`, and concatenate the partial findings (row indices
/// shifted by `row_offset`) and per-row confidences (when the scan
/// keeps them) in row order. Sharding happens strictly at chunk
/// granularity, so the output is bit-identical at every worker count.
pub(crate) fn scan_sharded<S>(
    pool: WorkerPool,
    table: &Table,
    row_offset: usize,
    scan: S,
) -> (Vec<Finding>, Vec<f64>)
where
    S: Fn(&RowSlice<'_>) -> (Vec<Finding>, Vec<f64>) + Sync,
{
    let chunks = table.chunks(pool.threads());
    let mut partials = pool.map_indexed(&chunks, |_, chunk| scan(chunk)).into_iter();
    let (mut findings, mut confidences) = partials.next().unwrap_or_default();
    for (chunk_findings, chunk_confidences) in partials {
        findings.extend(chunk_findings);
        confidences.extend(chunk_confidences);
    }
    for f in &mut findings {
        f.row += row_offset;
    }
    (findings, confidences)
}

/// Scan one row chunk against the structure model, returning the
/// chunk's findings (global row indices) and, if `keep_confidences`,
/// its per-row overall error confidences (Def. 8) in row order (else an
/// empty vector). A row gets a finding exactly when its overall
/// confidence is positive and reaches the minimal confidence. Sharding
/// happens strictly at chunk granularity, so the per-row arithmetic is
/// bit-identical at every thread count.
///
/// This is the **columnar** inner loop: C4.5 models classify through
/// their compiled [`dq_mining::FlatTree`]s straight off the table's
/// typed columns into one reused class-count buffer — no per-row
/// `Vec<Value>` materialization, no per-prediction allocation. A full
/// row record is materialized only when a non-C4.5 model (which takes
/// whole records) is present. The per-finding arithmetic is unchanged
/// from [`scan_chunk_reference`], so reports are byte-identical.
pub(crate) fn scan_chunk(
    model: &StructureModel,
    chunk: &RowSlice<'_>,
    keep_confidences: bool,
) -> (Vec<Finding>, Vec<f64>) {
    let cfg = model.config();
    let table = chunk.table();
    let mut findings = Vec::new();
    let mut confidences = Vec::with_capacity(if keep_confidences { chunk.len() } else { 0 });
    // Per-model facts hoisted out of the row loop (the class-card
    // lookup is a virtual call; rows × models of them add up).
    let prepared: Vec<(&AttrModel, usize, Option<&dq_mining::FlatTree>)> = model
        .models
        .iter()
        .map(|m| (m, m.classifier.class_card() as usize, m.flat_tree()))
        .collect();
    let max_card = prepared.iter().map(|&(_, card, _)| card).max().unwrap_or(0);
    let mut acc = vec![0.0f64; max_card];
    // One typed-cell row buffer shared by every model's tree walk (the
    // cells are fetched once per row); a full `Value` record exists
    // only when a non-C4.5 model (which takes whole records) is
    // present.
    let mut cells: Vec<dq_table::TypedCell> = Vec::with_capacity(table.n_cols());
    let needs_record = prepared.iter().any(|&(_, _, flat)| flat.is_none());
    let mut record: Vec<Value> = Vec::with_capacity(if needs_record { table.n_cols() } else { 0 });
    for row in chunk.rows() {
        table.typed_row_into(row, &mut cells);
        if needs_record {
            table.row_into(row, &mut record);
        }
        let mut row_confidence = 0.0f64;
        for &(m, card, flat) in &prepared {
            let boxed_prediction;
            let counts: &[f64] = match flat {
                Some(flat) => flat.classify_cells(&cells, &mut acc[..card]),
                None => {
                    boxed_prediction = m.classifier.predict(&record);
                    &boxed_prediction.counts
                }
            };
            let support: f64 = counts.iter().sum();
            if support <= 0.0 {
                continue;
            }
            let confidence = match m.spec.code_of_cell(cells[m.class_attr]) {
                Some(code) => dq_stats::error_confidence(counts, code as usize, cfg.level),
                None if cfg.flag_nulls => {
                    crate::confidence::null_error_confidence(counts, cfg.level)
                }
                None => 0.0,
            };
            if confidence <= 0.0 {
                continue;
            }
            row_confidence = row_confidence.max(confidence);
            if confidence >= cfg.min_confidence {
                let predicted_code = dq_stats::argmax(counts) as u32;
                findings.push(Finding {
                    row,
                    attr: m.class_attr,
                    observed: table.get(row, m.class_attr),
                    proposed: materialize_class(
                        table.schema(),
                        m.class_attr,
                        &m.spec,
                        predicted_code,
                    ),
                    confidence,
                    support,
                });
            }
        }
        if keep_confidences {
            confidences.push(row_confidence);
        }
    }
    (findings, confidences)
}

/// The pre-flattening inner loop: every row materialized into a
/// `Vec<Value>` record, every model classified through its boxed
/// [`Node`](dq_mining::Node) tree with a fresh count allocation per
/// prediction. Ground truth for [`scan_chunk`]'s byte-identity.
pub(crate) fn scan_chunk_reference(
    model: &StructureModel,
    chunk: &RowSlice<'_>,
) -> (Vec<Finding>, Vec<f64>) {
    let cfg = model.config();
    let table = chunk.table();
    let mut findings = Vec::new();
    let mut confidences = Vec::with_capacity(chunk.len());
    let mut record: Vec<Value> = Vec::with_capacity(table.n_cols());
    for row in chunk.rows() {
        table.row_into(row, &mut record);
        let mut row_confidence = 0.0f64;
        for m in &model.models {
            let prediction = m.classifier.predict(&record);
            if prediction.support <= 0.0 {
                continue;
            }
            let observed = record[m.class_attr];
            let confidence = match m.spec.code_of(&observed) {
                Some(code) => prediction.error_confidence(code, cfg.level),
                None if cfg.flag_nulls => {
                    crate::confidence::null_error_confidence(&prediction.counts, cfg.level)
                }
                None => 0.0,
            };
            if confidence <= 0.0 {
                continue;
            }
            row_confidence = row_confidence.max(confidence);
            if confidence >= cfg.min_confidence {
                let predicted_code = prediction.predicted_class();
                findings.push(Finding {
                    row,
                    attr: m.class_attr,
                    observed,
                    proposed: materialize_class(
                        table.schema(),
                        m.class_attr,
                        &m.spec,
                        predicted_code,
                    ),
                    confidence,
                    support: prediction.support,
                });
            }
        }
        confidences.push(row_confidence);
    }
    (findings, confidences)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::Auditor;
    use dq_table::{SchemaBuilder, Value};

    fn fixture() -> Table {
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .numeric("n", 0.0, 100.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..1200u32 {
            let (brv, gbm) = if i % 3 == 0 { (1, 1) } else { (0, 0) };
            let n = if brv == 0 { 10.0 + f64::from(i % 9) } else { 80.0 + f64::from(i % 9) };
            t.push_row(&[Value::Nominal(brv), Value::Nominal(gbm), Value::Number(n)]).unwrap();
        }
        t.push_row(&[Value::Nominal(0), Value::Nominal(1), Value::Number(12.0)]).unwrap();
        t
    }

    #[test]
    fn engine_detect_matches_auditor_detect_byte_for_byte() {
        let t = fixture();
        let auditor = Auditor::default();
        let model = auditor.induce(&t).unwrap();
        let expected = auditor.detect(&model, &t);
        let schema = t.schema().clone();
        let engine = AuditEngine::new(auditor.induce(&t).unwrap(), schema.clone());
        let got = engine.detect(t.batches(97)).unwrap();
        assert_eq!(got.to_csv(&schema), expected.to_csv(&schema));
        assert_eq!(got, expected);

        // Per batch, the per-row confidences agree with the reference
        // scan's, and a row is flagged exactly when its confidence
        // reaches the threshold.
        let (_, reference) = auditor.detect_reference(engine.model(), &t);
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let (mut findings, mut confidences) = (Vec::new(), Vec::new());
        let mut batches = t.batches(97);
        while let Some(batch) = batches.next_batch().unwrap() {
            let (f, c) = engine.scan_batch(&batch, confidences.len());
            findings.extend(f);
            confidences.extend(c);
        }
        assert_eq!(bits(&confidences), bits(&reference));
        assert_eq!(engine.report(findings, t.n_rows()), expected);
        for (row, c) in confidences.iter().enumerate() {
            assert_eq!(expected.is_flagged(row), *c >= expected.min_confidence, "row {row}");
        }
    }

    #[test]
    fn engine_is_shareable_across_scoped_threads() {
        let t = fixture();
        let auditor = Auditor::default();
        let model = auditor.induce(&t).unwrap();
        let expected = auditor.detect(&model, &t).to_csv(t.schema());
        let engine = std::sync::Arc::new(AuditEngine::new(model, t.schema().clone()));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let engine = engine.clone();
                    let t = &t;
                    let expected = expected.clone();
                    s.spawn(move || {
                        for _ in 0..3 {
                            let report = engine.detect(t.batches(t.n_rows())).unwrap();
                            assert_eq!(report.to_csv(engine.schema()), expected);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn detect_csv_and_record_round_trip() {
        let t = fixture();
        let auditor = Auditor::default();
        let model = auditor.induce(&t).unwrap();
        let schema = t.schema().clone();
        let engine = AuditEngine::new(model, schema.clone());
        let mut csv = Vec::new();
        dq_table::write_csv(&t, &mut csv).unwrap();
        let streamed = engine.detect_csv(csv.as_slice(), 257).unwrap();
        let in_memory = engine.detect(t.batches(t.n_rows())).unwrap();
        assert_eq!(streamed.to_csv(&schema), in_memory.to_csv(&schema));

        // The deviant last row, audited alone.
        let text = String::from_utf8(csv).unwrap();
        let last = text.lines().last().unwrap();
        let single = engine.detect_record_csv(last).unwrap();
        assert_eq!(single.n_rows(), 1);
        assert!(single.is_flagged(0), "the deviant record must be flagged alone");
    }

    #[test]
    fn a_record_line_must_hold_exactly_one_record() {
        let t = fixture();
        let model = Auditor::default().induce(&t).unwrap();
        let engine = AuditEngine::new(model, t.schema().clone());
        for line in ["", "\n", "\r\n", "404,901,12\n501,911,80"] {
            match engine.detect_record_csv(line) {
                Err(AuditError::Table(TableError::Csv(msg))) => {
                    assert!(msg.contains("exactly one record"), "{line:?}: {msg}")
                }
                other => panic!("{line:?} must be rejected, got {other:?}"),
            }
        }
    }
}
