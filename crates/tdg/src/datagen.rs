//! Data generation according to rules (sec. 4.1.4).
//!
//! "A number of records has to be created that follow this rule set.
//! This is done by selecting values for each attribute according to
//! independent probability distributions and successively adjusting
//! these guesses by rules that are violated." Start values come from
//! univariate [`DistributionSpec`]s and/or multivariate Bayesian
//! networks (the paper's fix for "independent sampling of the initial
//! values does not lead to a satisfactory model"); the adjustment is an
//! iterative **repair loop** that makes violated rules' consequents
//! true (falling back to falsifying the premise via TDG-negation when
//! the consequent is unsatisfiable in place).
//!
//! Repair can oscillate between rule *instances* (natural rule sets
//! only exclude pairwise contradictions), so passes are bounded and
//! unresolved violations are reported rather than looped on forever.

use dq_bayes::BayesianNetwork;
use dq_exec::WorkerPool;
use dq_logic::{negate, Atom, CompiledFormula, CompiledRuleSet, Formula, RecordView, RuleSet};
use dq_stats::DistributionSpec;
use dq_table::{AttrIdx, AttrType, BatchSource, Schema, Table, TableError, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Rows generated per independently seeded RNG stream.
///
/// Generation is sharded into fixed-size row chunks whose seeds are
/// all drawn from the caller's RNG *up front*; each chunk then runs
/// its own [`StdRng`] stream. The chunk layout depends only on
/// `n_rows`, never on the worker count, so the generated table is
/// byte-identical at any thread count (pinned, with the bytes
/// themselves, by `dq_cli`'s `generate_digests.txt` and the frozen
/// baseline in `tests/tdg_equivalence.rs`). 4096 rows balance
/// per-chunk setup (compiled scratch indexes) against scheduling
/// granularity: a million-row run still yields ~244 chunks to spread
/// over workers.
pub const GEN_CHUNK_ROWS: usize = 4096;

/// Start-value sampling: one univariate spec per attribute, optionally
/// overridden by multivariate Bayesian-network groups.
#[derive(Debug, Clone)]
pub struct StartDistributions {
    /// Per-attribute univariate distributions (index-aligned with the
    /// schema).
    pub univariate: Vec<DistributionSpec>,
    /// Multivariate groups; each network covers a set of nominal
    /// attributes which are then sampled jointly instead of from their
    /// univariate spec.
    pub networks: Vec<BayesianNetwork>,
    /// Probability of starting any cell as NULL (before repair; the
    /// repair step may overwrite injected NULLs to satisfy rules).
    pub null_rate: f64,
}

impl StartDistributions {
    /// Uniform univariate start distributions for every attribute.
    pub fn uniform(schema: &Schema) -> Self {
        StartDistributions {
            univariate: vec![DistributionSpec::Uniform; schema.len()],
            networks: Vec::new(),
            null_rate: 0.0,
        }
    }

    /// Override one attribute's univariate spec (builder style).
    pub fn with_spec(mut self, attr: AttrIdx, spec: DistributionSpec) -> Self {
        self.univariate[attr] = spec;
        self
    }

    /// Add a multivariate group (builder style).
    pub fn with_network(mut self, network: BayesianNetwork) -> Self {
        self.networks.push(network);
        self
    }

    /// Set the NULL injection rate (builder style).
    pub fn with_null_rate(mut self, rate: f64) -> Self {
        self.null_rate = rate;
        self
    }
}

/// Parameters of the data generation step.
#[derive(Debug, Clone)]
pub struct DataGenConfig {
    /// Number of records to generate.
    pub n_rows: usize,
    /// Start-value sampling.
    pub start: StartDistributions,
    /// Maximum repair passes over the rule set per record.
    pub max_repair_passes: usize,
    /// Worker threads for chunk generation — the shared
    /// [`Parallelism`](dq_exec::Parallelism) knob.
    /// [`AUTO`](dq_exec::Parallelism::AUTO) resolves via
    /// `DQ_THREADS`/available parallelism,
    /// [`serial`](dq_exec::Parallelism::serial) runs inline on the
    /// caller's thread. Output is byte-identical at any setting.
    pub threads: dq_exec::Parallelism,
}

impl DataGenConfig {
    /// Uniform start values, 24 repair passes, automatic threads.
    pub fn new(schema: &Schema, n_rows: usize) -> Self {
        DataGenConfig {
            n_rows,
            start: StartDistributions::uniform(schema),
            max_repair_passes: 24,
            threads: dq_exec::Parallelism::AUTO,
        }
    }
}

/// What happened during data generation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenReport {
    /// Records generated.
    pub rows: usize,
    /// Individual repair actions applied.
    pub repairs: u64,
    /// Records that still violated some rule after the pass budget.
    pub unresolved_rows: usize,
    /// Rule violations remaining across those records.
    pub unresolved_violations: u64,
}

/// Generate `config.n_rows` records over `schema` that (after repair)
/// follow `rules` — the fast path: rules are compiled once into a
/// [`CompiledRuleSet`], the repair loop re-evaluates only rules whose
/// attributes a repair touched (dirty-attribute inverted index), and
/// the fixed-size chunks are sharded across a [`WorkerPool`]. Output
/// is byte-identical at any thread count.
pub fn generate_table<R: Rng + ?Sized>(
    schema: &Arc<Schema>,
    rules: &RuleSet,
    config: &DataGenConfig,
    rng: &mut R,
) -> (Table, GenReport) {
    let generator = ChunkGenerator::new(schema.clone(), rules.clone(), config.clone());
    let plans = chunk_plans(config.n_rows, rng);
    let pool = WorkerPool::from_config(config.threads);
    let parts = pool.map_indexed(&plans, |_, &(n, seed)| generator.chunk(n, seed));
    let mut table = Table::with_capacity(schema.clone(), config.n_rows);
    let mut report = GenReport::default();
    append_parts(&mut table, &mut report, parts).expect("chunk tables share the schema");
    (table, report)
}

/// The compiled generation state, built once per rule set and shared
/// by [`generate_table`] and [`GenerateStream`]: one `(n, seed)` chunk
/// plan in, one `n`-row table plus its report out. Everything a chunk
/// does is a pure function of its plan, which is what makes the
/// in-memory and streamed paths byte-identical.
struct ChunkGenerator {
    schema: Arc<Schema>,
    rules: RuleSet,
    config: DataGenConfig,
    /// Attributes a multivariate group samples (no univariate draw).
    covered: Vec<bool>,
    compiled: CompiledRuleSet,
    /// Per rule, the two formulae a repair can enforce — the
    /// consequent and the TDG-negated premise — pre-compiled into
    /// repair trees (per-node programs + isnull flags) once per rule
    /// set instead of re-derived per repair action.
    repair_trees: Vec<(RepairTree, RepairTree)>,
    index: RepairIndex,
}

impl ChunkGenerator {
    fn new(schema: Arc<Schema>, rules: RuleSet, config: DataGenConfig) -> Self {
        assert_eq!(
            config.start.univariate.len(),
            schema.len(),
            "one univariate spec per attribute"
        );
        let covered = covered_attrs(&schema, &config);
        let compiled = CompiledRuleSet::compile(&rules, schema.len());
        let repair_trees = rules
            .iter()
            .map(|r| (RepairTree::compile(&r.consequent), RepairTree::compile(&negate(&r.premise))))
            .collect();
        let index = RepairIndex::new(&schema, &rules, &compiled);
        ChunkGenerator { schema, rules, config, covered, compiled, repair_trees, index }
    }

    /// Generate one `n`-row chunk from its own `seed`-ed RNG stream.
    fn chunk(&self, n: usize, seed: u64) -> (Table, GenReport) {
        let schema = &self.schema;
        let mut chunk_rng = StdRng::seed_from_u64(seed);
        let mut table = Table::with_capacity(schema.clone(), n);
        let mut report = GenReport::default();
        let mut record: Vec<Value> = vec![Value::Null; schema.len()];
        let mut joint: Vec<(AttrIdx, u32)> = Vec::new();
        let mut scratch = RepairScratch::new(schema, &self.rules);
        for _ in 0..n {
            sample_start(
                schema,
                &self.config,
                &self.covered,
                &mut record,
                &mut joint,
                &mut chunk_rng,
            );
            let unresolved =
                repair_record(self, &mut record, &mut chunk_rng, &mut report.repairs, &mut scratch);
            if unresolved > 0 {
                report.unresolved_rows += 1;
                report.unresolved_violations += unresolved as u64;
            }
            // Kind-checked append: repairs only write kind-correct
            // domain values (`tests/tdg_equivalence.rs` re-pushes every
            // generated row through the validating `push_row`).
            table.push_row_lenient(&record).expect("generated record matches schema");
            report.rows += 1;
        }
        (table, report)
    }
}

/// A [`BatchSource`] that **generates** its batches: chunk-seeded,
/// rule-following records produced on demand at O(chunk) memory, from
/// the same compiled chunk generator as [`generate_table`].
///
/// Construction draws the same up-front chunk plans from the
/// caller's RNG that `generate_table` would, so (1) the concatenated
/// batches are **byte-identical** to `generate_table`'s table at every
/// batch size and thread count, and (2) the caller's RNG lands in the
/// same state after construction as after an in-memory generate —
/// downstream seeded steps (pollution) see an identical stream.
///
/// Generation granularity stays [`GEN_CHUNK_ROWS`] internally
/// (refilled up to one chunk per worker per call); the emitted batch
/// size is re-sliced to [`GenerateStream::with_batch_rows`] without
/// affecting the bytes. Peak memory is
/// `O(batch_rows + threads × GEN_CHUNK_ROWS)` rows.
///
/// The accumulated [`GenReport`] (equal to `generate_table`'s once the
/// stream is drained) is available through
/// [`GenerateStream::report`].
pub struct GenerateStream {
    generator: ChunkGenerator,
    plans: Vec<(usize, u64)>,
    next_plan: usize,
    batch_rows: usize,
    pool: WorkerPool,
    /// Generated-but-not-yet-emitted rows.
    pending: Table,
    report: GenReport,
    rows_emitted: usize,
}

impl std::fmt::Debug for GenerateStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerateStream")
            .field("n_rows", &self.generator.config.n_rows)
            .field("rows_emitted", &self.rows_emitted)
            .field("batch_rows", &self.batch_rows)
            .field("chunks", &format_args!("{}/{}", self.next_plan, self.plans.len()))
            .finish_non_exhaustive()
    }
}

impl GenerateStream {
    /// Set up streamed generation: compiles the rule set once and
    /// draws the chunk seeds from `rng` exactly like
    /// [`generate_table`] (the RNG is not used again afterwards).
    pub fn new<R: Rng + ?Sized>(
        schema: Arc<Schema>,
        rules: RuleSet,
        config: DataGenConfig,
        rng: &mut R,
    ) -> Self {
        let pool = config.threads.pool();
        let pending = Table::new(schema.clone());
        let plans = chunk_plans(config.n_rows, rng);
        GenerateStream {
            generator: ChunkGenerator::new(schema, rules, config),
            plans,
            next_plan: 0,
            batch_rows: GEN_CHUNK_ROWS,
            pool,
            pending,
            report: GenReport::default(),
            rows_emitted: 0,
        }
    }

    /// Set the emitted batch size in rows (builder style; clamped to
    /// ≥ 1). Purely a memory/latency knob — the concatenated bytes are
    /// identical at every setting.
    pub fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows.max(1);
        self
    }

    /// The generation report accumulated so far; equal to
    /// [`generate_table`]'s report once the stream is drained.
    pub fn report(&self) -> &GenReport {
        &self.report
    }

    /// Fast-forward the stream so the next emitted row is global row
    /// `offset` — the seek a resumed job uses to skip rows a previous
    /// incarnation already committed. Every chunk is a pure function
    /// of its up-front `(len, seed)` plan, so draining after a seek
    /// yields exactly the bytes an uninterrupted stream produces from
    /// that offset on. Skipped rows count as emitted; the
    /// accumulated [`GenReport`] covers only rows generated by *this*
    /// incarnation (the report is no persisted output's source, so
    /// resume byte-identity does not depend on it).
    pub fn seek_to_row(&mut self, offset: usize) -> Result<(), TableError> {
        let n_rows = self.generator.config.n_rows;
        if offset > n_rows {
            return Err(TableError::RowOutOfRange(offset));
        }
        self.pending = Table::new(self.generator.schema.clone());
        self.report = GenReport::default();
        self.rows_emitted = offset;
        if offset == n_rows {
            self.next_plan = self.plans.len();
            return Ok(());
        }
        let chunk = offset / GEN_CHUNK_ROWS;
        let within = offset % GEN_CHUNK_ROWS;
        self.next_plan = chunk;
        if within > 0 {
            // The offset lands mid-chunk: regenerate the containing
            // chunk (pure per-plan) and keep only its tail.
            let (n, seed) = self.plans[chunk];
            let (part, _) = self.generator.chunk(n, seed);
            self.pending.append_rows(&part.slice_rows(within, n)?)?;
            self.next_plan = chunk + 1;
        }
        Ok(())
    }

    /// Generate the next round of chunks (one per worker) into the
    /// pending buffer.
    fn refill(&mut self) -> Result<(), TableError> {
        let end = (self.next_plan + self.pool.threads().max(1)).min(self.plans.len());
        let generator = &self.generator;
        let parts = self.pool.map_indexed(&self.plans[self.next_plan..end], |_, &(n, seed)| {
            generator.chunk(n, seed)
        });
        self.next_plan = end;
        append_parts(&mut self.pending, &mut self.report, parts)
    }
}

impl BatchSource for GenerateStream {
    fn schema(&self) -> &Arc<Schema> {
        &self.generator.schema
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        while self.pending.n_rows() < self.batch_rows && self.next_plan < self.plans.len() {
            self.refill()?;
        }
        if self.pending.is_empty() {
            return Ok(None);
        }
        let batch = if self.batch_rows >= self.pending.n_rows() {
            // The batch takes every pending row: move them out.
            std::mem::replace(&mut self.pending, Table::new(self.generator.schema.clone()))
        } else {
            let batch = self.pending.slice_rows(0, self.batch_rows)?;
            self.pending = self.pending.slice_rows(self.batch_rows, self.pending.n_rows())?;
            batch
        };
        self.rows_emitted += batch.n_rows();
        Ok(Some(batch))
    }

    fn rows_emitted(&self) -> usize {
        self.rows_emitted
    }

    fn row_count_hint(&self) -> Option<usize> {
        Some(self.generator.config.n_rows)
    }
}

/// The deterministic chunk layout: `(len, seed)` per chunk, seeds drawn
/// from the caller's RNG in chunk order before any generation starts.
fn chunk_plans<R: Rng + ?Sized>(n_rows: usize, rng: &mut R) -> Vec<(usize, u64)> {
    let n_chunks = n_rows.div_ceil(GEN_CHUNK_ROWS);
    (0..n_chunks)
        .map(|i| {
            let len = GEN_CHUNK_ROWS.min(n_rows - i * GEN_CHUNK_ROWS);
            (len, rng.gen::<u64>())
        })
        .collect()
}

/// Attributes covered by a multivariate group skip univariate sampling.
fn covered_attrs(schema: &Schema, config: &DataGenConfig) -> Vec<bool> {
    let mut covered = vec![false; schema.len()];
    for net in &config.start.networks {
        for a in net.attrs() {
            covered[a] = true;
        }
    }
    covered
}

/// Append generated chunks to `table` and fold their reports into
/// `report`, in chunk order — the one place chunk reports merge.
fn append_parts(
    table: &mut Table,
    report: &mut GenReport,
    parts: Vec<(Table, GenReport)>,
) -> Result<(), TableError> {
    for (part, part_report) in parts {
        table.append_rows(&part)?;
        report.rows += part_report.rows;
        report.repairs += part_report.repairs;
        report.unresolved_rows += part_report.unresolved_rows;
        report.unresolved_violations += part_report.unresolved_violations;
    }
    Ok(())
}

fn sample_start<R: Rng + ?Sized>(
    schema: &Schema,
    config: &DataGenConfig,
    covered: &[bool],
    record: &mut [Value],
    joint: &mut Vec<(AttrIdx, u32)>,
    rng: &mut R,
) {
    for (a, cell) in record.iter_mut().enumerate() {
        *cell = if covered[a] {
            Value::Null // filled by the network below
        } else {
            config.start.univariate[a].sample(&schema.attr(a).ty, rng)
        };
    }
    for net in &config.start.networks {
        net.sample_into(rng, joint);
        for &(attr, code) in joint.iter() {
            record[attr] = Value::Nominal(code);
        }
    }
    if config.start.null_rate > 0.0 {
        for cell in record.iter_mut() {
            if rng.gen::<f64>() < config.start.null_rate {
                *cell = Value::Null;
            }
        }
    }
}

fn shuffle<R: Rng + ?Sized, T>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Precomputed exact-remainder magic for one divisor (Lemire's
/// fastmod): `m = ⌈2⁶⁴ / s⌉` and `p = 2³² mod s`.
#[derive(Clone, Copy)]
struct ModMagic {
    s: u64,
    m: u64,
    p: u64,
}

impl ModMagic {
    fn new(s: u64) -> ModMagic {
        debug_assert!((1..=1 << 16).contains(&s));
        ModMagic { s, m: (u64::MAX / s).wrapping_add(1), p: (1u64 << 32) % s }
    }

    /// `y mod s` for `y < 2³²` without a hardware division
    /// (Lemire's fastmod; exact for 32-bit dividends).
    #[inline]
    fn rem32(&self, y: u64) -> u64 {
        if self.s == 1 {
            return 0;
        }
        ((self.m.wrapping_mul(y) as u128 * self.s as u128) >> 64) as u64
    }

    /// `x mod s` for any `x`, by splitting into 32-bit halves:
    /// `x = hi·2³² + lo ⇒ x mod s = (hi mod s · (2³² mod s) + lo mod s)
    /// mod s`. With `s ≤ 2¹⁶` the recombined dividend stays below
    /// 2³², so every step uses the exact 32-bit fastmod. Produces the
    /// same value as `x % s` bit for bit, so [`shuffle_fast`] picks the
    /// same swap index as [`shuffle`] from the same draw.
    #[inline]
    fn rem64(&self, x: u64) -> u64 {
        let hi = self.rem32(x >> 32);
        let lo = self.rem32(x & 0xFFFF_FFFF);
        self.rem32(hi * self.p + lo)
    }
}

/// The repair loop's shuffle for rule sets below 2¹⁶ rules: identical
/// swaps to [`shuffle`] (one `next_u64` draw per step, same index), with
/// the modulo done by precomputed magics instead of a hardware division
/// per draw.
fn shuffle_fast<R: Rng + ?Sized, T>(items: &mut [T], rng: &mut R, magics: &[ModMagic]) {
    for i in (1..items.len()).rev() {
        let j = magics[i + 1].rem64(rng.next_u64());
        items.swap(i, j as usize);
    }
}

/// Immutable scheduling indexes of one compiled rule set — built
/// once per generation call and shared by every chunk worker.
struct RepairIndex {
    /// The identity permutation, memcpy'd into the visit order per
    /// record.
    identity: Vec<u32>,
    /// Attribute list per rule (premise ∪ consequent), precomputed so
    /// repairs do not re-derive it.
    rule_attrs: Vec<Vec<usize>>,
    /// `guard_buckets[attr][code]` lists the rules whose nominal guard
    /// is `attr = code` — the per-record initial scan only evaluates
    /// the buckets the record's cells select.
    guard_buckets: Vec<Vec<Vec<u32>>>,
    /// Rules with a numeric-threshold guard, swept type-major by the
    /// initial scan: `(attr, threshold, rule)` per comparison kind.
    less_guards: Vec<(u32, f64, u32)>,
    eq_num_guards: Vec<(u32, f64, u32)>,
    greater_guards: Vec<(u32, f64, u32)>,
    /// Rules with no indexable guard, always evaluated by the initial
    /// scan.
    always_check: Vec<u32>,
    /// Per-span modulus magics for the shuffle (`None` when the rule
    /// count exceeds the exact-fastmod range).
    magics: Option<Vec<ModMagic>>,
    /// Per attribute: the rules whose *guard* reads that attribute.
    guards_on_attr: Vec<Vec<u32>>,
    /// Split inverted index for invalidation: per attribute, the
    /// touching rules whose nominal guard sits on that very attribute
    /// (stored with their guard code) and the rest. After a cell
    /// change only matching-guard and unguarded-on-this-attribute
    /// rules can *become* violated.
    by_attr_nom: Vec<Vec<(u32, u32)>>,
    by_attr_rest: Vec<Vec<u32>>,
}

impl RepairIndex {
    fn new(schema: &Schema, rules: &RuleSet, compiled: &CompiledRuleSet) -> RepairIndex {
        let identity: Vec<u32> = (0..rules.len() as u32).collect();
        let mut guard_buckets: Vec<Vec<Vec<u32>>> = schema
            .attributes()
            .iter()
            .map(|a| match &a.ty {
                AttrType::Nominal { labels } => vec![Vec::new(); labels.len()],
                _ => Vec::new(),
            })
            .collect();
        let mut always_check = Vec::new();
        let (mut less_guards, mut eq_num_guards, mut greater_guards) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut guard_attr = vec![u32::MAX; rules.len()];
        let mut guard_code = vec![u32::MAX; rules.len()];
        for i in 0..rules.len() {
            match compiled.guard_nominal(i) {
                Some((attr, code))
                    if attr < guard_buckets.len()
                        && (code as usize) < guard_buckets[attr].len() =>
                {
                    guard_buckets[attr][code as usize].push(i as u32);
                    guard_attr[i] = attr as u32;
                    guard_code[i] = code;
                }
                _ => match compiled.guard_numeric(i) {
                    Some((attr, x, -1)) => less_guards.push((attr as u32, x, i as u32)),
                    Some((attr, x, 0)) => eq_num_guards.push((attr as u32, x, i as u32)),
                    Some((attr, x, _)) => greater_guards.push((attr as u32, x, i as u32)),
                    None => always_check.push(i as u32),
                },
            }
        }
        let mut by_attr_nom: Vec<Vec<(u32, u32)>> = vec![Vec::new(); schema.len()];
        let mut by_attr_rest: Vec<Vec<u32>> = vec![Vec::new(); schema.len()];
        for a in 0..schema.len() {
            for &j in compiled.rules_on_attr(a) {
                if guard_attr[j as usize] == a as u32 {
                    by_attr_nom[a].push((guard_code[j as usize], j));
                } else {
                    by_attr_rest[a].push(j);
                }
            }
        }
        let mut guards_on_attr: Vec<Vec<u32>> = vec![Vec::new(); schema.len()];
        for i in 0..rules.len() {
            for a in compiled.guard_attrs(i) {
                if a < guards_on_attr.len() {
                    guards_on_attr[a].push(i as u32);
                }
            }
        }
        RepairIndex {
            identity,
            rule_attrs: rules.iter().map(|r| r.attrs()).collect(),
            guard_buckets,
            less_guards,
            eq_num_guards,
            greater_guards,
            always_check,
            by_attr_nom,
            by_attr_rest,
            guards_on_attr,
            magics: if rules.len() < (1 << 16) {
                Some((0..=rules.len().max(1)).map(|s| ModMagic::new(s.max(1) as u64)).collect())
            } else {
                None
            },
        }
    }
}

/// Mutable per-worker buffers of the compiled repair loop.
struct RepairScratch {
    /// Shuffled visit order (reset to identity per record: every
    /// record's first shuffle starts from the identity order).
    order: Vec<u32>,
    /// Inverse of `order`: `pos[rule] = turn`, rebuilt per repairing
    /// pass.
    pos: Vec<u32>,
    /// `violated[i]`: rule `i`'s current verdict. Kept current at all
    /// times by sequential batch re-evaluation (never lazily stale).
    violated: Vec<bool>,
    /// Indices of the rules with `violated[i] == true` (kept in sync).
    violated_set: Vec<u32>,
    /// Rules whose verdict the current repair may have changed,
    /// awaiting batch re-evaluation.
    dirty: Vec<u32>,
    /// Dedup stamps for `dirty` (`dirty_stamp[i] == stamp` ⇔ rule `i`
    /// is already queued for this repair).
    dirty_stamp: Vec<u32>,
    /// The current repair's stamp.
    stamp: u32,
    /// Snapshot of the repaired rule's cells, for change detection.
    before: Vec<Value>,
    /// Which snapshot slots actually changed during the repair.
    changed: Vec<bool>,
    /// Typed mirror of the current record (kept cell-exact in sync).
    view: RecordView,
    /// `guard_pass_stamp[i] == record_stamp` ⇔ rule `i`'s guard holds
    /// on the current record (kept current: guards are re-checked when
    /// one of their attributes changes). A failing guard lets the
    /// invalidation skip the rule without evaluating its program.
    guard_pass_stamp: Vec<u32>,
    record_stamp: u32,
}

impl RepairScratch {
    fn new(schema: &Schema, rules: &RuleSet) -> RepairScratch {
        let identity: Vec<u32> = (0..rules.len() as u32).collect();
        RepairScratch {
            order: identity.clone(),
            pos: identity,
            violated: vec![false; rules.len()],
            violated_set: Vec::new(),
            dirty: Vec::new(),
            dirty_stamp: vec![0; rules.len()],
            stamp: 0,
            before: Vec::new(),
            changed: Vec::new(),
            view: RecordView::new(schema.len()),
            guard_pass_stamp: vec![0; rules.len()],
            record_stamp: 0,
        }
    }
}

/// Repair a record against the rule set; returns the number of rules
/// still violated after the pass budget.
///
/// Three escalating phases share the pass budget. Natural rule sets
/// exclude pairwise contradictions, but rules with *overlapping*
/// premises may still prescribe incompatible consequents for
/// individual records, and dense rule sets (the paper's baseline has
/// 100 rules over 8 attributes) form a constraint system that local
/// enforcement alone cannot always satisfy:
///
/// 1. **enforce** — make violated consequents true (builds the wanted
///    dependencies);
/// 2. **falsify** — make violated premises false via their
///    TDG-negation (true exactly when the premise is false),
///    preferring NULL-free disjuncts;
/// 3. **escape** — falsify preferring the `isnull` disjuncts: a NULL
///    premise attribute falsifies every propositional and relational
///    atom on it, which is the guaranteed way out of conflict cycles
///    (at the price of a missing value).
///
/// Rules are visited in a fresh random order each pass so that cyclic
/// conflicts do not replay deterministically.
///
/// The RNG draw order is part of the output, pinned by `dq_cli`'s
/// `generate_digests.txt`: each pass draws one shuffle of the visit
/// order (a Fisher–Yates walk, one `next_u64` per step), then, in that
/// order, repairs every rule still violated when its turn comes, each
/// repair making its own draws. A pass that finds no violated rule
/// still draws its shuffle, then the record is done.
///
/// Rather than evaluating every rule at its turn, the loop keeps every
/// rule's verdict *current*: one guarded initial scan per record
/// (dispatched through the nominal guard buckets, so most rules are
/// ruled out by a table lookup), then after each repair a sequential
/// batch re-evaluation of exactly the rules reading a changed cell
/// (the dirty-attribute inverted index). A pass then just replays the
/// violated rules in shuffled-turn order — the verdict a rule would
/// get at its turn equals its current verdict, because verdicts only
/// change when the record changes, and every record change
/// immediately refreshes the affected verdicts.
fn repair_record<R: Rng + ?Sized>(
    generator: &ChunkGenerator,
    record: &mut [Value],
    rng: &mut R,
    repairs: &mut u64,
    scratch: &mut RepairScratch,
) -> usize {
    let ChunkGenerator { schema, compiled, repair_trees, index, config, .. } = generator;
    let schema: &Schema = schema;
    let max_passes = config.max_repair_passes;
    let enforce_end = (max_passes / 2).max(1);
    let falsify_end = enforce_end + (max_passes / 4);
    let RepairIndex {
        identity,
        rule_attrs,
        guard_buckets,
        less_guards,
        eq_num_guards,
        greater_guards,
        always_check,
        by_attr_nom,
        by_attr_rest,
        guards_on_attr,
        magics,
    } = index;
    let RepairScratch {
        order,
        pos,
        violated,
        violated_set,
        dirty,
        dirty_stamp,
        stamp,
        before,
        changed,
        view,
        guard_pass_stamp,
        record_stamp,
    } = scratch;
    *record_stamp = record_stamp.wrapping_add(1);
    let rs = *record_stamp;
    order.copy_from_slice(identity);
    view.sync_all(record);

    // Initial scan: compute every rule's verdict for the fresh record.
    // A rule whose nominal guard does not match its cell cannot be
    // violated, so only the matching buckets and the unguarded rules
    // are evaluated.
    violated.fill(false);
    violated_set.clear();
    for (a, buckets) in guard_buckets.iter().enumerate() {
        if let Value::Nominal(c) = record[a] {
            if let Some(bucket) = buckets.get(c as usize) {
                for &i in bucket {
                    // The bucket lookup *is* the guard check.
                    guard_pass_stamp[i as usize] = rs;
                    if compiled.violates_rule_view_postguard(i as usize, view) {
                        violated[i as usize] = true;
                        violated_set.push(i);
                    }
                }
            }
        }
    }
    {
        // Type-major threshold-guard sweeps: one predictable compare
        // per rule; only survivors run their violation program.
        let nums = view.nums();
        for &(a, x, i) in less_guards.iter() {
            if nums[a as usize] < x {
                guard_pass_stamp[i as usize] = rs;
                if compiled.violates_rule_view_postguard(i as usize, view) {
                    violated[i as usize] = true;
                    violated_set.push(i);
                }
            }
        }
        for &(a, x, i) in eq_num_guards.iter() {
            if nums[a as usize] == x {
                guard_pass_stamp[i as usize] = rs;
                if compiled.violates_rule_view_postguard(i as usize, view) {
                    violated[i as usize] = true;
                    violated_set.push(i);
                }
            }
        }
        for &(a, x, i) in greater_guards.iter() {
            if nums[a as usize] > x {
                guard_pass_stamp[i as usize] = rs;
                if compiled.violates_rule_view_postguard(i as usize, view) {
                    violated[i as usize] = true;
                    violated_set.push(i);
                }
            }
        }
    }
    for &i in always_check.iter() {
        if compiled.guard_passes_view(i as usize, view) {
            guard_pass_stamp[i as usize] = rs;
            if compiled.violates_rule_view_postguard(i as usize, view) {
                violated[i as usize] = true;
                violated_set.push(i);
            }
        }
    }

    for pass in 0..max_passes {
        if violated_set.is_empty() {
            // The clean confirm pass: its shuffle is drawn, no rule is
            // violated, the record is done. The permutation is never
            // read again (every record resets it), so only the
            // shuffle's RNG draws need consuming — one `next_u64` per
            // step.
            for _ in 1..order.len() {
                rng.next_u64();
            }
            return 0;
        }
        match magics {
            Some(m) => shuffle_fast(order, rng, m),
            None => shuffle(order, rng),
        }
        for (turn, &iu) in order.iter().enumerate() {
            pos[iu as usize] = turn as u32;
        }
        let (enforce, prefer_null) = (pass < enforce_end, pass >= falsify_end);
        let mut cursor = 0u32;
        // Replay the violated rules in turn order. A rule fixed by an
        // earlier-turn repair is clean at its turn and skipped; a rule
        // that *becomes* violated mid-pass after its turn waits for
        // the next pass.
        loop {
            let mut best: Option<(u32, u32)> = None; // (turn, rule)
            for &j in violated_set.iter() {
                let p = pos[j as usize];
                if p >= cursor && best.is_none_or(|(bp, _)| p < bp) {
                    best = Some((p, j));
                }
            }
            let Some((turn, iu)) = best else {
                break;
            };
            cursor = turn + 1;
            let i = iu as usize;
            *repairs += 1;
            let (consequent_tree, neg_premise_tree) = &repair_trees[i];
            let attrs = &rule_attrs[i];
            // Snapshot the rule's cells: `make_true` only ever writes
            // attributes of the formula it enforces, and both the
            // consequent and the TDG-negated premise mention only this
            // rule's attributes.
            before.clear();
            before.extend(attrs.iter().map(|&a| record[a]));
            // The rule is violated on the *current* record (verdicts
            // are kept current), so the consequent is known false —
            // and so is the negated premise as long as nothing has
            // been adjusted yet.
            let repaired =
                enforce && make_true_known_false(schema, consequent_tree, record, rng, prefer_null);
            if !repaired {
                if enforce {
                    make_true(schema, neg_premise_tree, record, rng, prefer_null);
                } else {
                    make_true_known_false(schema, neg_premise_tree, record, rng, prefer_null);
                }
            }
            // Refresh the verdicts of every rule reading a cell whose
            // value actually changed, in one sequential batch. The
            // split index keeps the candidate list small: a clean rule
            // whose nominal guard sits on the changed attribute can
            // only flip when the new cell matches its guard code.
            // Currently-violated rules are swept separately below so
            // their removal is never missed.
            dirty.clear();
            *stamp = stamp.wrapping_add(1);
            let mut any_changed = false;
            // First sweep: mirror the changed cells and refresh the
            // guard verdicts that read them.
            changed.clear();
            for (k, &a) in attrs.iter().enumerate() {
                let cell_changed = record[a] != before[k];
                changed.push(cell_changed);
                if cell_changed {
                    any_changed = true;
                    view.sync_attr(a, &record[a]);
                    for &j in guards_on_attr[a].iter() {
                        guard_pass_stamp[j as usize] =
                            if compiled.guard_passes_view(j as usize, view) { rs } else { 0 };
                    }
                }
            }
            // Second sweep: collect the re-evaluation candidates. A
            // clean rule whose guard (now up to date) fails cannot
            // have become violated.
            for (k, &a) in attrs.iter().enumerate() {
                if changed[k] {
                    let new_code = match record[a] {
                        Value::Nominal(c) => c,
                        _ => u32::MAX,
                    };
                    for &j in by_attr_rest[a].iter() {
                        let ju = j as usize;
                        if !violated[ju] && guard_pass_stamp[ju] != rs {
                            continue;
                        }
                        if dirty_stamp[ju] != *stamp {
                            dirty_stamp[ju] = *stamp;
                            dirty.push(j);
                        }
                    }
                    for &(code, j) in by_attr_nom[a].iter() {
                        if code == new_code && dirty_stamp[j as usize] != *stamp {
                            dirty_stamp[j as usize] = *stamp;
                            dirty.push(j);
                        }
                    }
                }
            }
            if any_changed {
                // A violated rule touching any changed attribute must
                // be re-evaluated even when its guard now rejects it —
                // that is exactly how it leaves the violated set.
                for &j in violated_set.iter() {
                    let ju = j as usize;
                    if dirty_stamp[ju] == *stamp {
                        continue;
                    }
                    let touched = attrs
                        .iter()
                        .enumerate()
                        .any(|(k, &a)| changed[k] && rule_attrs[ju].contains(&a));
                    if touched {
                        dirty_stamp[ju] = *stamp;
                        dirty.push(j);
                    }
                }
            }
            for &j in dirty.iter() {
                let was = violated[j as usize];
                // The stamp invariant says whether the guard holds, so
                // stamped rules enter past their guard op.
                let now = guard_pass_stamp[j as usize] == rs
                    && compiled.violates_rule_view_postguard(j as usize, view);
                if was != now {
                    violated[j as usize] = now;
                    if now {
                        violated_set.push(j);
                    } else {
                        let at = violated_set
                            .iter()
                            .position(|&x| x == j)
                            .expect("violated rule is in the set");
                        violated_set.swap_remove(at);
                    }
                }
            }
        }
    }
    violated_set.len()
}

/// A formula pre-compiled for the repair step: the formula's tree shape,
/// which [`make_true`] walks, with a flat evaluation program and the
/// `contains_isnull` flag cached at every node, so satisfaction checks
/// and isnull tests run on precomputed data instead of re-walking
/// `Formula` trees.
struct RepairTree {
    program: CompiledFormula,
    has_isnull: bool,
    kind: RepairKind,
}

enum RepairKind {
    Atom(Atom),
    And(Vec<RepairTree>),
    Or(Vec<RepairTree>),
}

impl RepairTree {
    fn compile(formula: &Formula) -> RepairTree {
        let kind = match formula {
            Formula::Atom(a) => RepairKind::Atom(*a),
            Formula::And(fs) => RepairKind::And(fs.iter().map(RepairTree::compile).collect()),
            Formula::Or(fs) => RepairKind::Or(fs.iter().map(RepairTree::compile).collect()),
        };
        RepairTree {
            program: CompiledFormula::compile(formula),
            has_isnull: contains_isnull(formula),
            kind,
        }
    }
}

/// Adjust the record so the tree's formula holds; returns `false` when
/// no adjustment was found (rare: empty domains or exhausted retries).
fn make_true<R: Rng + ?Sized>(
    schema: &Schema,
    tree: &RepairTree,
    record: &mut [Value],
    rng: &mut R,
    prefer_null: bool,
) -> bool {
    if tree.program.eval(record) {
        return true;
    }
    make_true_known_false(schema, tree, record, rng, prefer_null)
}

/// [`make_true`] minus the entry satisfaction check, for callers that
/// already know the formula is false on the record (a violated rule's
/// consequent, or — before any other adjustment — the TDG-negation of
/// its premise).
fn make_true_known_false<R: Rng + ?Sized>(
    schema: &Schema,
    tree: &RepairTree,
    record: &mut [Value],
    rng: &mut R,
    prefer_null: bool,
) -> bool {
    match &tree.kind {
        RepairKind::Atom(a) => make_atom_true(schema, a, record, rng),
        RepairKind::And(children) => {
            let mut ok = true;
            for child in children {
                ok &= make_true(schema, child, record, rng, prefer_null);
            }
            // Later conjuncts may have disturbed earlier ones; report
            // success only if the whole conjunction now holds.
            ok && tree.program.eval(record)
        }
        RepairKind::Or(children) => {
            // Try disjuncts in two tiers: by default first (in random
            // order) the ones that do not force a NULL, then the
            // NULL-introducing ones — TDG-negations are full of
            // `… ∨ A isnull` disjuncts (Table 1), and picking them
            // blindly would riddle the "clean" data with NULLs. The
            // escape phase of the repair loop reverses the order.
            let start = rng.gen_range(0..children.len());
            for null_tier in [prefer_null, !prefer_null] {
                for i in 0..children.len() {
                    let child = &children[(start + i) % children.len()];
                    if child.has_isnull == null_tier
                        && make_true(schema, child, record, rng, prefer_null)
                    {
                        return true;
                    }
                }
            }
            false
        }
    }
}

fn make_atom_true<R: Rng + ?Sized>(
    schema: &Schema,
    atom: &Atom,
    record: &mut [Value],
    rng: &mut R,
) -> bool {
    match atom {
        Atom::EqConst { attr, value } => {
            // Constants may be written in widened coordinates (the
            // TDG-negation of `d < 11112.5` contains `d = 11112.5`);
            // coerce to the column's kind, failing when no value of
            // that kind can be equal (fractional "dates").
            match coerce_constant(&schema.attr(*attr).ty, value) {
                Some(v) => {
                    record[*attr] = v;
                    true
                }
                None => false,
            }
        }
        Atom::NeqConst { attr, value } => {
            for _ in 0..16 {
                let v = crate::atomgen::random_domain_value(schema, *attr, rng);
                if v.sql_eq(value) == Some(false) {
                    record[*attr] = v;
                    return true;
                }
            }
            false
        }
        Atom::LessConst { attr, value } => {
            match sample_range(&schema.attr(*attr).ty, f64::NEG_INFINITY, *value, true, rng) {
                Some(v) => {
                    record[*attr] = v;
                    true
                }
                None => false,
            }
        }
        Atom::GreaterConst { attr, value } => {
            match sample_range(&schema.attr(*attr).ty, *value, f64::INFINITY, true, rng) {
                Some(v) => {
                    record[*attr] = v;
                    true
                }
                None => false,
            }
        }
        Atom::IsNull { attr } => {
            record[*attr] = Value::Null;
            true
        }
        Atom::IsNotNull { attr } => {
            if record[*attr].is_null() {
                record[*attr] = crate::atomgen::random_domain_value(schema, *attr, rng);
            }
            true
        }
        Atom::EqAttr { left, right } => make_attrs_equal(schema, *left, *right, record, rng),
        Atom::NeqAttr { left, right } => {
            for _ in 0..16 {
                let side = if rng.gen::<bool>() { *left } else { *right };
                let v = crate::atomgen::random_domain_value(schema, side, rng);
                record[side] = v;
                if record[*left].sql_eq(&record[*right]) == Some(false) {
                    return true;
                }
            }
            false
        }
        Atom::LessAttr { left, right } => make_attrs_ordered(schema, *left, *right, record, rng),
        Atom::GreaterAttr { left, right } => make_attrs_ordered(schema, *right, *left, record, rng),
    }
}

/// Make `record[left] = record[right]` hold, sampling a common value
/// from the domain overlap.
fn make_attrs_equal<R: Rng + ?Sized>(
    schema: &Schema,
    left: AttrIdx,
    right: AttrIdx,
    record: &mut [Value],
    rng: &mut R,
) -> bool {
    let (lt, rt) = (&schema.attr(left).ty, &schema.attr(right).ty);
    match (lt, rt) {
        (AttrType::Nominal { .. }, AttrType::Nominal { .. }) => {
            // Compatible nominal attributes share their label list;
            // copy one side's code (sample if both NULL).
            let code = record[left]
                .as_nominal()
                .or_else(|| record[right].as_nominal())
                .unwrap_or_else(|| {
                    crate::atomgen::random_domain_value(schema, left, rng)
                        .as_nominal()
                        .expect("nominal domain value")
                });
            record[left] = Value::Nominal(code);
            record[right] = Value::Nominal(code);
            true
        }
        _ => {
            // Ordered pair: sample a common widened value from the
            // domain overlap, snapped to the coarser grid.
            let (llo, lhi) = ordered_bounds(lt);
            let (rlo, rhi) = ordered_bounds(rt);
            let (lo, hi) = (llo.max(rlo), lhi.min(rhi));
            if lo > hi {
                return false;
            }
            // If either side needs an integer grid, sample integers.
            let needs_grid = ordered_is_grid(lt) || ordered_is_grid(rt);
            let x = if needs_grid {
                let (lo_i, hi_i) = (lo.ceil() as i64, hi.floor() as i64);
                if lo_i > hi_i {
                    return false;
                }
                rng.gen_range(lo_i..=hi_i) as f64
            } else {
                rng.gen_range(lo..=hi)
            };
            record[left] = materialize(lt, x);
            record[right] = materialize(rt, x);
            true
        }
    }
}

/// Make `record[small] < record[big]` hold.
fn make_attrs_ordered<R: Rng + ?Sized>(
    schema: &Schema,
    small: AttrIdx,
    big: AttrIdx,
    record: &mut [Value],
    rng: &mut R,
) -> bool {
    let st = &schema.attr(small).ty;
    let bt = &schema.attr(big).ty;
    // Keep the big side if a smaller value fits below it; else keep the
    // small side and raise the big one; else resample both.
    if let Some(y) = record[big].as_numeric() {
        if let Some(v) = sample_range(st, f64::NEG_INFINITY, y, true, rng) {
            record[small] = v;
            return true;
        }
    }
    if let Some(x) = record[small].as_numeric() {
        if let Some(v) = sample_range(bt, x, f64::INFINITY, true, rng) {
            record[big] = v;
            return true;
        }
    }
    let (slo, _) = ordered_bounds(st);
    let (_, bhi) = ordered_bounds(bt);
    if slo >= bhi {
        return false;
    }
    // Sample the small side low in the feasible band, then the big side
    // above it.
    let mid = slo + (bhi - slo) / 2.0;
    let Some(small_v) = sample_range(st, f64::NEG_INFINITY, mid, false, rng) else {
        return false;
    };
    record[small] = small_v;
    let x = small_v.as_numeric().expect("ordered value");
    match sample_range(bt, x, f64::INFINITY, true, rng) {
        Some(v) => {
            record[big] = v;
            true
        }
        None => false,
    }
}

/// Does the formula contain an `isnull` atom (so satisfying it may
/// introduce a NULL)?
fn contains_isnull(formula: &Formula) -> bool {
    let mut found = false;
    formula.visit_atoms(&mut |a| {
        if matches!(a, Atom::IsNull { .. }) {
            found = true;
        }
    });
    found
}

/// Coerce a constant (possibly in widened numeric coordinates) to a
/// cell value of the attribute's kind; `None` when no value of that
/// kind equals the constant under the NULL-aware `=` semantics.
fn coerce_constant(ty: &AttrType, value: &Value) -> Option<Value> {
    match (ty, value) {
        (AttrType::Nominal { .. }, Value::Nominal(_)) => Some(*value),
        (AttrType::Numeric { .. }, _) => value.as_numeric().map(Value::Number),
        (AttrType::Date { .. }, Value::Date(_)) => Some(*value),
        (AttrType::Date { .. }, Value::Number(x)) if x.fract() == 0.0 => {
            Some(Value::Date(*x as i64))
        }
        _ => None,
    }
}

/// Widened `[min, max]` bounds of an ordered attribute type.
fn ordered_bounds(ty: &AttrType) -> (f64, f64) {
    match ty {
        AttrType::Numeric { min, max, .. } => (*min, *max),
        AttrType::Date { min, max } => (*min as f64, *max as f64),
        AttrType::Nominal { .. } => unreachable!("ordering over nominal attribute"),
    }
}

fn ordered_is_grid(ty: &AttrType) -> bool {
    matches!(ty, AttrType::Numeric { integer: true, .. } | AttrType::Date { .. })
}

/// Materialize a widened numeric value as a cell of the given type.
fn materialize(ty: &AttrType, x: f64) -> Value {
    match ty {
        AttrType::Numeric { .. } => Value::Number(x),
        AttrType::Date { .. } => Value::Date(x as i64),
        AttrType::Nominal { .. } => unreachable!("ordering over nominal attribute"),
    }
}

/// Sample a domain value of type `ty` in the widened interval
/// `(lo, hi)` / `[lo, hi]` (`strict` controls both ends: strict means
/// open interval). Returns `None` when the intersection with the
/// domain is empty.
fn sample_range<R: Rng + ?Sized>(
    ty: &AttrType,
    lo: f64,
    hi: f64,
    strict: bool,
    rng: &mut R,
) -> Option<Value> {
    let (dlo, dhi) = ordered_bounds(ty);
    let lo = lo.max(dlo);
    let hi = hi.min(dhi);
    if ordered_is_grid(ty) {
        let mut lo_i = lo.ceil() as i64;
        let mut hi_i = hi.floor() as i64;
        if strict {
            if lo_i as f64 <= lo {
                lo_i += 1;
            }
            if hi_i as f64 >= hi {
                hi_i -= 1;
            }
        }
        // Clamp back into the domain (strictness applies to the query
        // interval, not the domain bounds).
        let lo_i = lo_i.max(dlo.ceil() as i64);
        let hi_i = hi_i.min(dhi.floor() as i64);
        if lo_i > hi_i {
            return None;
        }
        Some(materialize(ty, rng.gen_range(lo_i..=hi_i) as f64))
    } else {
        if lo > hi || (strict && lo >= hi) {
            return None;
        }
        if lo == hi {
            return Some(Value::Number(lo));
        }
        // A uniform draw hits the open endpoints with probability 0;
        // nudge away from `lo` when strict.
        let mut u = rng.gen::<f64>();
        if strict && u == 0.0 {
            u = 0.5;
        }
        Some(Value::Number(lo + u * (hi - lo)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_logic::eval::violations;
    use dq_logic::Rule;
    use dq_table::SchemaBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Arc<Schema> {
        SchemaBuilder::new()
            .nominal("a", ["v1", "v2", "v3"])
            .nominal("b", ["v1", "v2", "v3"])
            .numeric("n", 0.0, 100.0)
            .date_ymd("d", (2000, 1, 1), (2009, 12, 31))
            .integer("k", 0.0, 20.0)
            .build()
            .unwrap()
    }

    fn eq(attr: usize, code: u32) -> Formula {
        Formula::Atom(Atom::EqConst { attr, value: Value::Nominal(code) })
    }

    #[test]
    fn generated_data_follows_simple_rules() {
        let s = schema();
        let rules = RuleSet::from_rules(vec![
            Rule::new(eq(0, 0), eq(1, 1)),
            Rule::new(eq(1, 2), Formula::Atom(Atom::LessConst { attr: 2, value: 50.0 })),
        ]);
        let cfg = DataGenConfig::new(&s, 500);
        let mut rng = StdRng::seed_from_u64(1);
        let (table, report) = generate_table(&s, &rules, &cfg, &mut rng);
        assert_eq!(table.n_rows(), 500);
        assert_eq!(report.unresolved_rows, 0, "{report:?}");
        for rule in &rules {
            assert!(violations(rule, &table).is_empty(), "rule {rule} violated");
        }
        // The rules were actually exercised, not vacuously satisfied.
        assert!(report.repairs > 0);
    }

    #[test]
    fn relational_rules_are_repaired() {
        let s = schema();
        let rules = RuleSet::from_rules(vec![
            // a = v2 → a = b (same nominal domain).
            Rule::new(eq(0, 1), Formula::Atom(Atom::EqAttr { left: 0, right: 1 })),
            // k > 10 → n > k (ordered pair).
            Rule::new(
                Formula::Atom(Atom::GreaterConst { attr: 4, value: 10.0 }),
                Formula::Atom(Atom::GreaterAttr { left: 2, right: 4 }),
            ),
        ]);
        let cfg = DataGenConfig::new(&s, 400);
        let mut rng = StdRng::seed_from_u64(2);
        let (table, report) = generate_table(&s, &rules, &cfg, &mut rng);
        assert_eq!(report.unresolved_rows, 0, "{report:?}");
        for rule in &rules {
            assert!(violations(rule, &table).is_empty(), "rule {rule} violated");
        }
        // All values stayed in-domain despite repair.
        assert!(table.domain_violations().is_empty());
    }

    #[test]
    fn null_atoms_are_repaired() {
        let s = schema();
        let rules = RuleSet::from_rules(vec![
            Rule::new(eq(0, 2), Formula::Atom(Atom::IsNull { attr: 1 })),
            Rule::new(eq(1, 0), Formula::Atom(Atom::IsNotNull { attr: 3 })),
        ]);
        let cfg = DataGenConfig::new(&s, 300);
        let mut rng = StdRng::seed_from_u64(3);
        let (table, report) = generate_table(&s, &rules, &cfg, &mut rng);
        assert_eq!(report.unresolved_rows, 0);
        for rule in &rules {
            assert!(violations(rule, &table).is_empty());
        }
        // The isnull consequent actually produced NULLs.
        assert!(table.count_where(1, |v| v.is_null()) > 0);
    }

    #[test]
    fn disjunctive_consequents_pick_a_branch() {
        let s = schema();
        let rules =
            RuleSet::from_rules(vec![Rule::new(eq(0, 0), Formula::Or(vec![eq(1, 0), eq(1, 2)]))]);
        let cfg = DataGenConfig::new(&s, 400);
        let mut rng = StdRng::seed_from_u64(4);
        let (table, report) = generate_table(&s, &rules, &cfg, &mut rng);
        assert_eq!(report.unresolved_rows, 0);
        let mut saw = [false; 2];
        let mut buf = Vec::new();
        for r in 0..table.n_rows() {
            table.row_into(r, &mut buf);
            if buf[0] == Value::Nominal(0) {
                match buf[1] {
                    Value::Nominal(0) => saw[0] = true,
                    Value::Nominal(2) => saw[1] = true,
                    other => panic!("rule violated with b = {other:?}"),
                }
            }
        }
        assert!(saw[0] && saw[1], "both disjuncts should be exercised");
    }

    #[test]
    fn bayesian_network_drives_start_values() {
        let s = schema();
        // A network forcing a = v1 always, b = v3 whenever a = v1.
        let net = dq_bayes::BayesNetBuilder::new()
            .node(0, 3, vec![], vec![vec![1.0, 0.0, 0.0]])
            .node(
                1,
                3,
                vec![0],
                vec![vec![0.0, 0.0, 1.0], vec![1.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]],
            )
            .build()
            .unwrap();
        let mut cfg = DataGenConfig::new(&s, 100);
        cfg.start = StartDistributions::uniform(&s).with_network(net);
        let mut rng = StdRng::seed_from_u64(5);
        let (table, _) = generate_table(&s, &RuleSet::new(), &cfg, &mut rng);
        assert_eq!(table.count_where(0, |v| v == Value::Nominal(0)), 100);
        assert_eq!(table.count_where(1, |v| v == Value::Nominal(2)), 100);
    }

    #[test]
    fn null_rate_injects_nulls() {
        let s = schema();
        let mut cfg = DataGenConfig::new(&s, 500);
        cfg.start = StartDistributions::uniform(&s).with_null_rate(0.3);
        let mut rng = StdRng::seed_from_u64(6);
        let (table, _) = generate_table(&s, &RuleSet::new(), &cfg, &mut rng);
        let nulls: usize = (0..s.len()).map(|a| table.count_where(a, |v| v.is_null())).sum();
        let total = 500 * s.len();
        let rate = nulls as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed null rate {rate}");
    }

    #[test]
    fn conflicting_rule_instances_resolve_by_premise_falsification() {
        // Def. 6 only excludes contradictions between premises where
        // one implies the other; rules with *overlapping* premises may
        // still clash on individual records: a = v1 → n < 10 and
        // b = v1 → n > 90 cannot both hold on a record with
        // a = v1 ∧ b = v1. Enforcing consequents oscillates; the
        // generator must fall back to falsifying a premise and emit a
        // consistent table.
        let s = schema();
        let rules = RuleSet::from_rules(vec![
            Rule::new(eq(0, 0), Formula::Atom(Atom::LessConst { attr: 2, value: 10.0 })),
            Rule::new(eq(1, 0), Formula::Atom(Atom::GreaterConst { attr: 2, value: 90.0 })),
        ]);
        let cfg = DataGenConfig::new(&s, 300);
        let mut rng = StdRng::seed_from_u64(7);
        let (table, report) = generate_table(&s, &rules, &cfg, &mut rng);
        assert_eq!(report.unresolved_rows, 0, "{report:?}");
        for rule in &rules {
            assert!(violations(rule, &table).is_empty(), "rule {rule} violated");
        }
        // The conflicting combination must have been removed from (or
        // never emitted into) the table.
        let mut buf = Vec::new();
        for r in 0..table.n_rows() {
            table.row_into(r, &mut buf);
            assert!(
                !(buf[0] == Value::Nominal(0) && buf[1] == Value::Nominal(0)),
                "row {r} keeps the impossible premise combination"
            );
        }
    }

    #[test]
    fn fastmod_matches_hardware_remainder_exactly() {
        let mut rng = StdRng::seed_from_u64(99);
        for s in 1..=300u64 {
            let magic = ModMagic::new(s);
            for x in [0u64, 1, s, s + 1, u64::MAX, u64::MAX - 1, 1 << 32, (1 << 32) - 1] {
                assert_eq!(magic.rem64(x), x % s, "x={x} s={s}");
            }
            for _ in 0..200 {
                let x: u64 = rng.gen();
                assert_eq!(magic.rem64(x), x % s, "x={x} s={s}");
            }
        }
        // The largest supported span.
        let magic = ModMagic::new(1 << 16);
        for _ in 0..1000 {
            let x: u64 = rng.gen();
            assert_eq!(magic.rem64(x), x % (1 << 16));
        }
    }

    #[test]
    fn shuffle_fast_replays_shuffle_exactly() {
        let magics: Vec<ModMagic> = (0..=128u64).map(|s| ModMagic::new(s.max(1))).collect();
        for n in [2usize, 3, 17, 100, 128] {
            for seed in 0..20 {
                let mut a: Vec<u32> = (0..n as u32).collect();
                let mut b = a.clone();
                shuffle(&mut a, &mut StdRng::seed_from_u64(seed));
                shuffle_fast(&mut b, &mut StdRng::seed_from_u64(seed), &magics);
                assert_eq!(a, b, "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn generate_stream_is_byte_identical_and_preserves_rng_state() {
        let s = schema();
        let rules = RuleSet::from_rules(vec![
            Rule::new(eq(0, 0), eq(1, 1)),
            Rule::new(eq(1, 2), Formula::Atom(Atom::LessConst { attr: 2, value: 50.0 })),
        ]);
        // Cross a chunk boundary so the stream refills more than once.
        let n_rows = GEN_CHUNK_ROWS + 777;
        let mut cfg = DataGenConfig::new(&s, n_rows);
        cfg.threads = dq_exec::Parallelism::explicit(2);
        let mut rng = StdRng::seed_from_u64(7);
        let (reference, reference_report) = generate_table(&s, &rules, &cfg, &mut rng);
        let sentinel: u64 = rng.gen();

        for batch_rows in [1usize, 613, GEN_CHUNK_ROWS, n_rows + 5] {
            let mut rng = StdRng::seed_from_u64(7);
            let mut stream = GenerateStream::new(s.clone(), rules.clone(), cfg.clone(), &mut rng)
                .with_batch_rows(batch_rows);
            // The caller RNG must sit exactly where generate_table left
            // it, so downstream seeded steps line up.
            assert_eq!(rng.gen::<u64>(), sentinel, "batch_rows={batch_rows}");
            assert_eq!(stream.row_count_hint(), Some(n_rows));
            let mut got = Table::new(s.clone());
            while let Some(batch) = stream.next_batch().unwrap() {
                assert!(!batch.is_empty());
                assert!(batch.n_rows() <= batch_rows);
                got.append_rows(&batch).unwrap();
                assert_eq!(stream.rows_emitted(), got.n_rows());
            }
            assert!(matches!(stream.next_batch(), Ok(None)), "must stay fused");
            assert_eq!(got.n_rows(), reference.n_rows(), "batch_rows={batch_rows}");
            let csv = |t: &Table| {
                let mut buf = Vec::new();
                dq_table::write_csv(t, &mut buf).unwrap();
                buf
            };
            assert_eq!(csv(&got), csv(&reference), "batch_rows={batch_rows}");
            assert_eq!(stream.report(), &reference_report, "batch_rows={batch_rows}");
        }
    }

    #[test]
    fn seek_to_row_resumes_the_exact_stream_from_any_offset() {
        let s = schema();
        let rules = RuleSet::from_rules(vec![Rule::new(eq(0, 0), eq(1, 1))]);
        let n_rows = GEN_CHUNK_ROWS + 777;
        let mut cfg = DataGenConfig::new(&s, n_rows);
        cfg.threads = dq_exec::Parallelism::explicit(2);
        let mut rng = StdRng::seed_from_u64(31);
        let (reference, _) = generate_table(&s, &rules, &cfg, &mut rng);

        // Chunk-aligned, mid-chunk, mid-last-chunk, and terminal seeks.
        for offset in [0usize, 1, 613, GEN_CHUNK_ROWS, GEN_CHUNK_ROWS + 1, n_rows - 1, n_rows] {
            let mut rng = StdRng::seed_from_u64(31);
            let mut stream = GenerateStream::new(s.clone(), rules.clone(), cfg.clone(), &mut rng)
                .with_batch_rows(100);
            stream.seek_to_row(offset).unwrap();
            assert_eq!(stream.rows_emitted(), offset);
            let mut row = offset;
            while let Some(batch) = stream.next_batch().unwrap() {
                for r in 0..batch.n_rows() {
                    assert_eq!(batch.row(r), reference.row(row), "offset={offset}, row {row}");
                    row += 1;
                }
            }
            assert_eq!(row, n_rows, "offset={offset}");
        }

        let mut rng = StdRng::seed_from_u64(31);
        let mut stream = GenerateStream::new(s, rules, cfg, &mut rng);
        assert!(stream.seek_to_row(n_rows + 1).is_err(), "seek past the budget is typed");
    }

    #[test]
    fn sample_range_respects_grids_and_strictness() {
        let mut rng = StdRng::seed_from_u64(8);
        let int_ty = AttrType::Numeric { min: 0.0, max: 10.0, integer: true };
        for _ in 0..100 {
            let v = sample_range(&int_ty, 3.0, 5.0, true, &mut rng).unwrap();
            assert_eq!(v, Value::Number(4.0)); // only integer strictly between
        }
        assert_eq!(sample_range(&int_ty, 3.0, 4.0, true, &mut rng), None);
        let date_ty = AttrType::Date { min: 0, max: 100 };
        let v = sample_range(&date_ty, 49.5, 50.5, true, &mut rng).unwrap();
        assert_eq!(v, Value::Date(50));
        let real_ty = AttrType::Numeric { min: 0.0, max: 1.0, integer: false };
        for _ in 0..100 {
            let v = sample_range(&real_ty, 0.4, 0.6, true, &mut rng).unwrap();
            let x = v.as_numeric().unwrap();
            assert!(x > 0.4 && x < 0.6);
        }
        assert_eq!(sample_range(&real_ty, 2.0, 3.0, false, &mut rng), None);
    }
}
