//! [`PolluteStream`]: chunk-at-a-time pollution over any
//! [`BatchSource`].
//!
//! The streaming counterpart of [`pollute`](crate::pollute): wrap a
//! clean batch source (a [`GenerateStream`], a CSV reader) and drain
//! dirty batches from it, holding only one chunk of each in memory. Because the pollution core consumes its RNG
//! strictly in clean-row order, the concatenated dirty batches — and
//! the accumulated [`PollutionLog`], whose clean-row and dirty-row
//! indices are global — are byte-identical to an in-memory
//! `pollute` over the concatenated input, for every chunking.
//!
//! [`GenerateStream`]: https://docs.rs/dq_tdg

use crate::log::PollutionLog;
use crate::pipeline::{pollute_chunk, PollutionConfig};
use dq_table::{BatchSource, Schema, Table, TableError};
use rand::Rng;
use std::sync::Arc;

/// A [`BatchSource`] of dirty batches: each clean batch pulled from
/// `source` is polluted as one chunk. The ground-truth log is complete
/// once the stream is drained ([`PolluteStream::log`] /
/// [`PolluteStream::into_log`]). A row no cell polluter activated on
/// is copied column by column, not rebuilt as a record, and
/// [`PolluteStream::clean_copies`] names those rows of each batch, so
/// a consumer that already rendered the clean batch can copy their
/// bytes too.
pub struct PolluteStream<S, R> {
    source: S,
    config: PollutionConfig,
    rng: R,
    log: PollutionLog,
    /// Per dirty row of the last batch: the row of its clean batch it
    /// copies untouched, if any (see [`PolluteStream::clean_copies`]).
    copies: Vec<Option<usize>>,
    clean_rows_seen: usize,
    rows_emitted: usize,
    done: bool,
}

impl<S: BatchSource, R: Rng> PolluteStream<S, R> {
    /// Pollute everything `source` will emit, drawing from `rng`. The
    /// RNG is owned: pollution must be the only consumer while the
    /// stream drains, exactly as `pollute` borrows one exclusively.
    pub fn new(source: S, config: PollutionConfig, rng: R) -> Self {
        PolluteStream {
            source,
            config,
            rng,
            log: PollutionLog::default(),
            copies: Vec::new(),
            clean_rows_seen: 0,
            rows_emitted: 0,
            done: false,
        }
    }

    /// Continue a pollution stream a previous incarnation left off —
    /// the resume path of a checkpointed job. `source` must already be
    /// positioned at clean row `clean_rows_seen` (the journal's
    /// cursor), `rng` rebuilt from the journaled generator state, and
    /// `dirty_rows` is how many dirty rows the previous incarnation
    /// already committed (the continuation log's base, and this
    /// stream's starting emitted count). The pollution core draws its
    /// RNG strictly in clean-row order, so the continued stream's
    /// bytes — and the continuation log's global indices — are exactly
    /// what an uninterrupted stream would have produced from there.
    pub fn resume(
        source: S,
        config: PollutionConfig,
        rng: R,
        clean_rows_seen: usize,
        dirty_rows: usize,
    ) -> Self {
        PolluteStream {
            source,
            config,
            rng,
            log: PollutionLog::with_base(dirty_rows),
            copies: Vec::new(),
            clean_rows_seen,
            rows_emitted: dirty_rows,
            done: false,
        }
    }

    /// The ground-truth log accumulated so far — complete (equal to
    /// the in-memory [`pollute`](crate::pollute) log) once
    /// `next_batch` has returned `Ok(None)`.
    pub fn log(&self) -> &PollutionLog {
        &self.log
    }

    /// Which rows of the batch `next_batch` last returned are untouched
    /// copies: one entry per dirty row, `Some(r)` when no cell polluter
    /// activated on it and it equals row `r` of the clean batch that
    /// produced it (a kept row, or either copy of a duplicated one),
    /// `None` when a cell polluter activated, even if its changes
    /// cancelled out. The clean batch is the *last* one pulled from
    /// the source: batches that pollution deleted whole come before
    /// it. A consumer that rendered that clean batch can reuse the
    /// bytes of every `Some` row instead of rendering it again.
    pub fn clean_copies(&self) -> &[Option<usize>] {
        &self.copies
    }

    /// The owned RNG — a checkpointing job reads its state here at
    /// each commit, so a resumed incarnation can rebuild it.
    pub fn rng(&self) -> &R {
        &self.rng
    }

    /// The inner source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// The inner source, mutably — a checkpointing job flushes a tee'd
    /// writer through this at each commit without ending the stream.
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Consume the stream, returning the accumulated log.
    pub fn into_log(self) -> PollutionLog {
        self.log
    }

    /// Consume the stream, returning the inner source and the log —
    /// for callers that need the source back (a tee'd writer to
    /// close, a reader whose position matters).
    pub fn into_parts(self) -> (S, PollutionLog) {
        (self.source, self.log)
    }

    /// Clean rows consumed from the source so far.
    pub fn clean_rows_seen(&self) -> usize {
        self.clean_rows_seen
    }
}

impl<S: std::fmt::Debug, R> std::fmt::Debug for PolluteStream<S, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolluteStream")
            .field("source", &self.source)
            .field("config", &self.config)
            .field("clean_rows_seen", &self.clean_rows_seen)
            .field("rows_emitted", &self.rows_emitted)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<S: BatchSource, R: Rng> BatchSource for PolluteStream<S, R> {
    fn schema(&self) -> &Arc<Schema> {
        self.source.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        if self.done {
            return Ok(None);
        }
        // A chunk whose every row the duplicator deletes pollutes to
        // an empty table; the contract forbids empty batches, so keep
        // pulling until something survives or the source ends.
        loop {
            let clean = match self.source.next_batch() {
                Ok(Some(batch)) => batch,
                Ok(None) => {
                    self.done = true;
                    return Ok(None);
                }
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            };
            let offset = self.clean_rows_seen;
            self.clean_rows_seen += clean.n_rows();
            let dirty = pollute_chunk(
                &clean,
                offset,
                &self.config,
                &mut self.log,
                &mut self.rng,
                &mut self.copies,
            );
            if dirty.is_empty() {
                continue;
            }
            self.rows_emitted += dirty.n_rows();
            return Ok(Some(dirty));
        }
    }

    fn rows_emitted(&self) -> usize {
        self.rows_emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{pollute, PollutionStep};
    use crate::polluter::Polluter;
    use dq_table::{ReplaySource, SchemaBuilder, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clean_table(n: usize) -> Table {
        let schema = SchemaBuilder::new()
            .nominal("a", ["x", "y", "z"])
            .nominal("b", ["x", "y", "z"])
            .numeric("n", 0.0, 100.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(&[
                Value::Nominal((i % 3) as u32),
                Value::Nominal(((i + 1) % 3) as u32),
                Value::Number((i % 100) as f64),
            ])
            .unwrap();
        }
        t
    }

    fn csv(table: &Table) -> String {
        let mut buf = Vec::new();
        dq_table::write_csv(table, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    /// Drain a stream into one table, checking the batch contract.
    fn drain<S: BatchSource>(mut s: S) -> Table {
        let mut out = Table::new(s.schema().clone());
        while let Some(batch) = s.next_batch().unwrap() {
            assert!(!batch.is_empty(), "batches must never be empty");
            out.append_rows(&batch).unwrap();
            assert_eq!(s.rows_emitted(), out.n_rows());
        }
        assert!(matches!(s.next_batch(), Ok(None)), "must fuse at end");
        out
    }

    #[test]
    fn chunked_pollution_equals_unchunked() {
        let clean = clean_table(997);
        let cfg = PollutionConfig::standard().with_factor(3.0);
        let (dirty_ref, log_ref) = pollute(&clean, &cfg, &mut StdRng::seed_from_u64(42));
        for chunk_rows in [1usize, 7, 64, 997, 5000] {
            let mut stream = PolluteStream::new(
                clean.batches(chunk_rows),
                cfg.clone(),
                StdRng::seed_from_u64(42),
            );
            let dirty = drain(&mut stream);
            assert_eq!(stream.clean_rows_seen(), clean.n_rows());
            assert_eq!(csv(&dirty), csv(&dirty_ref), "chunk_rows={chunk_rows}");
            let log = stream.into_log();
            assert_eq!(log.provenance, log_ref.provenance, "chunk_rows={chunk_rows}");
            assert_eq!(log.cells, log_ref.cells, "chunk_rows={chunk_rows}");
            assert_eq!(
                log.deleted_clean_rows, log_ref.deleted_clean_rows,
                "chunk_rows={chunk_rows}"
            );
            assert_eq!(log.n_corrupted_rows(), log_ref.n_corrupted_rows());
            for r in 0..log.n_rows() {
                assert_eq!(log.is_row_corrupted(r), log_ref.is_row_corrupted(r), "row {r}");
            }
        }
    }

    #[test]
    fn resume_continues_the_exact_stream_and_log() {
        let clean = clean_table(997);
        let cfg = PollutionConfig::standard().with_factor(3.0);
        let (dirty_ref, log_ref) = pollute(&clean, &cfg, &mut StdRng::seed_from_u64(42));

        // First incarnation: five 64-row chunks, then the "crash". At
        // the commit boundary we hold exactly what a journal records:
        // clean cursor, dirty watermark, RNG state.
        let mut first =
            PolluteStream::new(clean.batches(64), cfg.clone(), StdRng::seed_from_u64(42));
        let mut dirty = Table::new(clean.schema().clone());
        for _ in 0..5 {
            dirty.append_rows(&first.next_batch().unwrap().unwrap()).unwrap();
        }
        let cursor = first.clean_rows_seen();
        let watermark = dirty.n_rows();
        let rng_state = first.rng().state();
        let mut cells = first.log().cells.clone();

        // Second incarnation: reposition the source and continue.
        let tail = clean.slice_rows(cursor, clean.n_rows()).unwrap();
        let mut resumed = PolluteStream::resume(
            tail.batches(64),
            cfg,
            StdRng::from_state(rng_state),
            cursor,
            watermark,
        );
        while let Some(batch) = resumed.next_batch().unwrap() {
            dirty.append_rows(&batch).unwrap();
        }
        assert_eq!(resumed.rows_emitted(), dirty.n_rows());
        assert_eq!(csv(&dirty), csv(&dirty_ref), "resumed dirty rows must be byte-identical");
        cells.extend(resumed.log().cells.iter().cloned());
        assert_eq!(cells, log_ref.cells, "concatenated logs must equal the uninterrupted log");
        assert!(
            resumed.log().provenance.iter().all(|p| p.clean_row >= cursor),
            "continuation provenance is global"
        );
    }

    /// FNV-1a, for frozen digests.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// Drain `stream`, returning digests of the dirty CSV and of the
    /// log (cells and deletions), and the RNG state after the first
    /// batch.
    fn drain_digest<S: BatchSource>(stream: &mut PolluteStream<S, StdRng>) -> (u64, u64, [u64; 4]) {
        let mut dirty = Table::new(stream.schema().clone());
        let mut after_first = None;
        while let Some(batch) = stream.next_batch().unwrap() {
            dirty.append_rows(&batch).unwrap();
            after_first.get_or_insert(stream.rng().state());
        }
        let mut cells = String::new();
        stream.log().render_cells_csv(dirty.schema(), 0, &mut cells);
        for r in &stream.log().deleted_clean_rows {
            cells.push_str(&format!("deleted {r}\n"));
        }
        (fnv1a(csv(&dirty).as_bytes()), fnv1a(cells.as_bytes()), after_first.unwrap())
    }

    #[test]
    fn rng_walk_and_output_match_frozen_digests() {
        // Recorded while every row was still rebuilt as a record: a
        // row that no cell polluter touches is now copied, and neither
        // its bytes, the log nor the RNG draws may move.
        let clean = clean_table(997);
        let cfg = PollutionConfig::standard().with_factor(3.0);
        let mut stream = PolluteStream::new(clean.batches(64), cfg, StdRng::seed_from_u64(42));
        let (dirty, log, rng_after_first) = drain_digest(&mut stream);
        assert_eq!(
            (dirty, log, rng_after_first, stream.rng().state()),
            (
                0x852b_525b_aeb9_c343,
                0x33bd_8826_9ef1_50eb,
                [
                    4446261989609468971,
                    7942532247440011068,
                    10896333148143849262,
                    12966738116617669912
                ],
                [
                    7931608500783995633,
                    13110560827403721303,
                    14204626139407834025,
                    7486716082327759160
                ]
            )
        );
    }

    #[test]
    fn a_row_whose_changes_cancel_out_is_not_a_copy() {
        let clean = clean_table(30);
        // Two switches of the same pair swap every row back.
        let switch =
            PollutionStep { polluter: Polluter::Switcher { attrs: Some((0, 1)) }, activation: 1.0 };
        let cfg = PollutionConfig { steps: vec![switch.clone(), switch], factor: 1.0 };
        let mut stream = PolluteStream::new(clean.batches(8), cfg, StdRng::seed_from_u64(3));
        let mut dirty = Table::new(clean.schema().clone());
        while let Some(batch) = stream.next_batch().unwrap() {
            assert!(stream.clean_copies().iter().all(Option::is_none), "every row was touched");
            dirty.append_rows(&batch).unwrap();
        }
        assert!(stream.log().cells.is_empty(), "the switches cancel out");
        assert_eq!(csv(&dirty), csv(&clean));
    }

    #[test]
    fn rows_only_the_duplicator_hit_and_their_copies_are_copies() {
        let clean = clean_table(40);
        let cfg = PollutionConfig {
            steps: vec![
                PollutionStep { polluter: Polluter::NullValue { attr: Some(2) }, activation: 0.3 },
                PollutionStep { polluter: Polluter::Duplicator { p_delete: 0.0 }, activation: 1.0 },
            ],
            factor: 1.0,
        };
        let mut stream = PolluteStream::new(clean.batches(16), cfg, StdRng::seed_from_u64(5));
        let (mut copies, mut nulled) = (0, 0);
        while let Some(batch) = stream.next_batch().unwrap() {
            let offset = stream.clean_rows_seen() - (batch.n_rows() / 2);
            let log = stream.log();
            for (r, copy) in stream.clean_copies().iter().enumerate() {
                let global = log.n_rows() - batch.n_rows() + r;
                let prov = log.provenance[global];
                assert_eq!(prov.duplicate, r % 2 == 1, "every row is duplicated");
                match copy {
                    Some(c) => {
                        copies += 1;
                        assert_eq!(offset + c, prov.clean_row);
                        assert_eq!(batch.row(r), clean.row(prov.clean_row));
                    }
                    None => {
                        nulled += 1;
                        assert_eq!(batch.get(r, 2), Value::Null);
                    }
                }
            }
        }
        assert_eq!(copies + nulled, 80);
        assert!(copies > 0 && nulled > 0, "copies {copies}, nulled {nulled}");
        assert_eq!(copies % 2, 0, "a copy's duplicate is a copy too");
    }

    #[test]
    fn a_touched_zero_keeps_its_rendered_sign() {
        // An integer column whose clean cells are all -0: a wrong value
        // below the limiter's lower cut (exactly 0 here) is limited to
        // +0. The net change is nothing under `sql_eq`, so the log
        // stays empty, but the row renders `0` where the clean row
        // rendered `-0`: the row is touched, never a copy.
        let schema = SchemaBuilder::new()
            .integer("n", -10.0, 90.0)
            .nominal("a", ["x", "y"])
            .build()
            .unwrap();
        let mut clean = Table::new(schema);
        for i in 0..200 {
            clean.push_row(&[Value::Number(-0.0), Value::Nominal(i % 2)]).unwrap();
        }
        let cfg = PollutionConfig {
            steps: vec![
                PollutionStep {
                    polluter: Polluter::WrongValue {
                        attr: Some(0),
                        dist: dq_stats::DistributionSpec::Uniform,
                    },
                    activation: 1.0,
                },
                PollutionStep {
                    polluter: Polluter::Limiter { attr: Some(0), lower_frac: 0.1, upper_frac: 0.9 },
                    activation: 1.0,
                },
            ],
            factor: 1.0,
        };
        let mut stream = PolluteStream::new(clean.batches(50), cfg, StdRng::seed_from_u64(9));
        let mut flipped = 0;
        while let Some(batch) = stream.next_batch().unwrap() {
            let base = stream.log().n_rows() - batch.n_rows();
            let text = csv(&batch);
            for (r, line) in text.lines().skip(1).enumerate() {
                assert_eq!(stream.clean_copies()[r], None);
                if !stream.log().cells.iter().any(|c| c.dirty_row == base + r) {
                    flipped += 1;
                    assert!(line.starts_with("0,"), "row {r} renders {line:?}");
                }
            }
        }
        assert!(flipped > 0, "some -0 must be limited to +0 with an empty log");
        assert!(csv(&clean).lines().skip(1).all(|line| line.starts_with("-0,")));
    }

    #[test]
    fn all_deleted_chunks_are_skipped_not_emitted() {
        let clean = clean_table(40);
        // p_delete = 1 and activation 1: every record is deleted.
        let cfg = PollutionConfig {
            steps: vec![PollutionStep {
                polluter: Polluter::Duplicator { p_delete: 1.0 },
                activation: 1.0,
            }],
            factor: 1.0,
        };
        let mut stream = PolluteStream::new(clean.batches(8), cfg, StdRng::seed_from_u64(7));
        assert!(stream.next_batch().unwrap().is_none());
        assert_eq!(stream.rows_emitted(), 0);
        assert_eq!(stream.clean_rows_seen(), 40);
        assert_eq!(stream.log().deleted_clean_rows.len(), 40);
    }

    #[test]
    fn source_errors_propagate_and_fuse() {
        let clean = clean_table(10);
        let schema = clean.schema().clone();
        let good = clean.slice_rows(0, 5).unwrap();
        let source = ReplaySource::new(schema, vec![Ok(good), Err(TableError::Csv("torn".into()))]);
        let mut stream =
            PolluteStream::new(source, PollutionConfig::standard(), StdRng::seed_from_u64(1));
        let first = stream.next_batch().unwrap().expect("first batch survives");
        assert!(first.n_rows() > 0);
        assert!(matches!(stream.next_batch(), Err(TableError::Csv(_))));
        assert!(matches!(stream.next_batch(), Ok(None)), "fused after error");
        // The log still covers the rows polluted before the tear.
        assert_eq!(stream.log().n_rows(), first.n_rows());
    }
}
