//! The multiple classification / regression auditor (sec. 5).
//!
//! "For each attribute in the relation to be audited, a classifier is
//! induced that describes the dependency of this class attribute from
//! the other attributes (called base attributes in this context). A
//! record can be checked for deviations by comparing its observed
//! class value with the predicted value for each classifier."
//!
//! Structure induction ([`Auditor::induce`]) and deviation detection
//! ([`Auditor::detect`]) are separate phases: "both tasks can run
//! asynchronously … the time-consuming structure induction can be
//! prepared off-line, new data can be checked for deviations and
//! loaded quickly". [`Auditor::run`] is the single-database mode where
//! one table serves "both for training and data audit".

use crate::confidence::min_instances_for_confidence;
use crate::engine::{scan_chunk, scan_sharded, LeafVerdicts};
use crate::error::AuditError;
use crate::report::AuditReport;
use dq_exec::{Parallelism, WorkerPool};
use dq_mining::{
    C45Inducer, ClassSpec, Classifier, FlatTree, InducerKind, TableCache, TrainingSet, TreeRule,
};
use dq_table::{AttrIdx, AttrType, Schema, Table, Value};

/// Configuration of the auditing tool.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// The classifier family inducing the per-attribute dependency
    /// models. Defaults to C4.5 with the paper's adjustments.
    pub inducer: InducerKind,
    /// "Minimal confidence for detected errors" — findings below it are
    /// dropped, and minInst is derived from it. The paper's experiments
    /// fix 80%.
    pub min_confidence: f64,
    /// Two-sided confidence level of all interval bounds.
    pub level: f64,
    /// Equal-frequency bins for numeric/date class attributes.
    pub bins: usize,
    /// Derive the minInst pre-pruning bound from `min_confidence`
    /// (sec. 5.4). Only affects the C4.5 inducer.
    pub derive_min_inst: bool,
    /// Delete structure-model rules that cannot reach `min_confidence`
    /// (sec. 5.4: rules that "cannot contribute to an error
    /// detection"). Only affects the C4.5 inducer.
    pub delete_undetecting_rules: bool,
    /// Flag NULL class values whose prediction is strong (the
    /// completeness dimension).
    pub flag_nulls: bool,
    /// Attributes to audit; `None` audits every attribute.
    pub audited_attrs: Option<Vec<AttrIdx>>,
    /// Domain-knowledge overrides of the base attribute set per class
    /// attribute ("if it is known that an attribute does not influence
    /// the value of a class attribute, it can be removed").
    pub base_attr_overrides: Vec<(AttrIdx, Vec<AttrIdx>)>,
    /// Worker threads for structure induction (one classifier per
    /// attribute fans out across the pool) and deviation detection
    /// (the record scan is sharded into row chunks) — the shared
    /// [`Parallelism`] knob: explicit count > `DQ_THREADS` >
    /// available cores. The default ([`Parallelism::AUTO`]) defers to
    /// the environment. Results are identical at every thread count —
    /// parallelism only changes wall-clock time.
    pub threads: Parallelism,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            inducer: InducerKind::default(),
            min_confidence: 0.8,
            level: 0.95,
            bins: 8,
            derive_min_inst: true,
            delete_undetecting_rules: true,
            flag_nulls: true,
            audited_attrs: None,
            base_attr_overrides: Vec::new(),
            threads: Parallelism::AUTO,
        }
    }
}

impl AuditConfig {
    fn validate(&self) -> Result<(), AuditError> {
        if !(0.0..=1.0).contains(&self.min_confidence) {
            return Err(AuditError::BadConfig(format!(
                "min_confidence must be in [0, 1], got {}",
                self.min_confidence
            )));
        }
        if !(self.level > 0.0 && self.level < 1.0) {
            return Err(AuditError::BadConfig(format!(
                "confidence level must be in (0, 1), got {}",
                self.level
            )));
        }
        if self.bins < 2 {
            return Err(AuditError::BadConfig("bins must be at least 2".into()));
        }
        Ok(())
    }
}

/// The dependency model of one class attribute.
pub struct AttrModel {
    /// The class attribute this model predicts.
    pub class_attr: AttrIdx,
    /// Class-code mapping (nominal codes or equal-frequency bins).
    pub spec: ClassSpec,
    /// The induced classifier.
    pub classifier: Box<dyn Classifier>,
    /// The rule set extracted from a C4.5 tree (empty for other
    /// inducers) — the structure model of sec. 5.4.
    pub rules: Vec<TreeRule>,
    /// Leaves removed by the rule-deletion step.
    pub deleted_rules: usize,
    /// The flattened evaluator compiled from a C4.5 tree at
    /// construction time, with its leaves' detection verdicts (`None`
    /// for other classifier families) — what [`Auditor::detect`]
    /// classifies and scores through.
    flat: Option<(FlatTree, LeafVerdicts)>,
}

impl AttrModel {
    /// Assemble a dependency model, compiling the classifier into its
    /// flat detection form when it is a C4.5 tree, and scoring that
    /// tree's leaves once at the confidence level the tree was induced
    /// with. Every model — from [`Auditor::induce`] or from a persisted
    /// file — is built through here, and both build their trees at the
    /// structure model's configured level, so detection always has the
    /// flat evaluator and the leaf verdicts available.
    pub fn new(
        class_attr: AttrIdx,
        spec: ClassSpec,
        classifier: Box<dyn Classifier>,
        rules: Vec<TreeRule>,
        deleted_rules: usize,
    ) -> Self {
        let flat = classifier.as_c45().map(|tree| {
            let flat = FlatTree::from_tree(tree);
            let verdicts = LeafVerdicts::new(&flat, tree.level());
            (flat, verdicts)
        });
        AttrModel { class_attr, spec, classifier, rules, deleted_rules, flat }
    }

    /// The flat tree and its leaf verdicts, when the classifier is a
    /// C4.5 tree.
    pub(crate) fn compiled(&self) -> Option<(&FlatTree, &LeafVerdicts)> {
        self.flat.as_ref().map(|(flat, verdicts)| (flat, verdicts))
    }
}

impl std::fmt::Debug for AttrModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttrModel")
            .field("class_attr", &self.class_attr)
            .field("classifier", &self.classifier.describe())
            .field("rules", &self.rules.len())
            .field("deleted_rules", &self.deleted_rules)
            .finish()
    }
}

/// The induced structure model for a whole table: one dependency model
/// per audited attribute. "The rule sets generated by all classifiers
/// in the multiple classification / regression approach build the
/// structure model of the data … a set of integrity constraints that
/// must hold with a given probability."
#[derive(Debug)]
pub struct StructureModel {
    /// Per-attribute models, in audited-attribute order.
    pub models: Vec<AttrModel>,
    /// The derived minInst bound (0 when disabled).
    pub min_inst: f64,
    /// The configuration used for induction (reused by detection,
    /// persisted as provenance by `model_io`).
    pub(crate) config: AuditConfig,
}

impl StructureModel {
    /// Total number of structure-model rules across attributes.
    pub fn n_rules(&self) -> usize {
        self.models.iter().map(|m| m.rules.len()).sum()
    }

    /// The configuration the model was induced with (provenance; the
    /// persisted file records it in its header).
    pub fn config(&self) -> &AuditConfig {
        &self.config
    }

    /// Render the probabilistic integrity constraints with schema
    /// names, one per line, most-supported first per attribute.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = Vec::new();
        for m in &self.models {
            let mut rules: Vec<&TreeRule> = m.rules.iter().collect();
            rules.sort_by(|a, b| b.support.total_cmp(&a.support));
            for r in rules {
                let label = m.spec.label_of(schema, m.class_attr, r.predicted);
                out.push(r.render(schema, m.class_attr, &label));
            }
        }
        out.join("\n")
    }
}

/// The data auditing tool.
#[derive(Debug, Clone, Default)]
pub struct Auditor {
    /// The configuration.
    pub config: AuditConfig,
}

impl Auditor {
    /// An auditor with the given configuration.
    pub fn new(config: AuditConfig) -> Self {
        Auditor { config }
    }

    /// **Structure induction**: induce one dependency model per audited
    /// attribute from `table`.
    ///
    /// The per-attribute inductions are independent, so they fan out
    /// across [`AuditConfig::threads`] workers; results come back in
    /// audited-attribute order and are identical to a serial run.
    pub fn induce(&self, table: &Table) -> Result<StructureModel, AuditError> {
        self.config.validate()?;
        if table.is_empty() {
            return Err(AuditError::EmptyTable);
        }
        if table.n_cols() < 2 {
            return Err(AuditError::SingleColumn);
        }
        let min_inst = if self.config.derive_min_inst {
            min_instances_for_confidence(self.config.min_confidence, self.config.level) as f64
        } else {
            0.0
        };
        let audited: Vec<AttrIdx> = match &self.config.audited_attrs {
            Some(list) => list.clone(),
            None => (0..table.n_cols()).collect(),
        };
        // The C4.5 trees are induced at the auditor's confidence level
        // and prune for its minimal detection confidence (sec. 5.4);
        // the model records exactly that configuration.
        let mut config = self.config.clone();
        if let InducerKind::C45(cfg) = &mut config.inducer {
            cfg.level = config.level;
            cfg.min_detect_conf = config.min_confidence;
        }
        // One table-level column cache (widened payloads + presorts)
        // shared by every per-attribute C4.5 induction; the other
        // classifier families read the training set directly.
        let cache = match &config.inducer {
            InducerKind::C45(_) => TableCache::build(table),
            _ => TableCache::default(),
        };
        let pool = WorkerPool::from_config(config.threads);
        let models = pool
            .map_indexed(&audited, |_, &class_attr| {
                let train = self.training_set(table, class_attr)?;
                induce_one(&config, &train, class_attr, min_inst, &cache)
            })
            .into_iter()
            .collect::<Result<Vec<AttrModel>, AuditError>>()?;
        Ok(StructureModel { models, min_inst, config })
    }

    fn training_set<'a>(
        &self,
        table: &'a Table,
        class_attr: AttrIdx,
    ) -> Result<TrainingSet<'a>, AuditError> {
        let override_bases = self
            .config
            .base_attr_overrides
            .iter()
            .find(|(a, _)| *a == class_attr)
            .map(|(_, bases)| bases.clone());
        let result = match override_bases {
            Some(bases) => TrainingSet::new(table, class_attr, bases, self.config.bins),
            None => TrainingSet::full(table, class_attr, self.config.bins),
        };
        result.map_err(|source| AuditError::Induction { class_attr, source })
    }

    /// **Deviation detection**: check every record of `table` against
    /// the structure model. `table` may be the training table (single-
    /// database mode) or fresh data (warehouse-loading mode).
    ///
    /// The scan shards into one row chunk per worker (see
    /// [`Table::chunks`]); per-chunk partial reports merge back in row
    /// order, so the result is identical at every thread count. An
    /// empty table yields an empty, well-formed report.
    pub fn detect(&self, model: &StructureModel, table: &Table) -> AuditReport {
        let pool = self.config.threads.pool();
        let (findings, _) = scan_sharded(pool, table, 0, |chunk| scan_chunk(model, chunk, false));
        AuditReport::new(findings, table.n_rows(), model.config().min_confidence)
    }

    /// Single-database mode: induce and detect on the same table.
    pub fn run(&self, table: &Table) -> Result<(StructureModel, AuditReport), AuditError> {
        let model = self.induce(table)?;
        let report = self.detect(&model, table);
        Ok((model, report))
    }
}

/// Induce the dependency model of one class attribute. A C4.5 tree is
/// induced against the shared table `cache`.
fn induce_one(
    config: &AuditConfig,
    train: &TrainingSet<'_>,
    class_attr: AttrIdx,
    min_inst: f64,
    cache: &TableCache,
) -> Result<AttrModel, AuditError> {
    let wrap = |source| AuditError::Induction { class_attr, source };
    match &config.inducer {
        InducerKind::C45(cfg) => {
            let mut cfg = cfg.clone();
            if config.derive_min_inst {
                cfg.min_inst = min_inst;
            }
            let inducer = C45Inducer::new(cfg);
            let mut tree = inducer.induce_tree_cached(train, cache).map_err(wrap)?;
            let deleted = if config.delete_undetecting_rules {
                tree.disable_undetecting_leaves(config.min_confidence)
            } else {
                0
            };
            let rules = tree.to_rules();
            let spec = train.spec.clone();
            Ok(AttrModel::new(class_attr, spec, Box::new(tree), rules, deleted))
        }
        other => {
            let classifier = other.build().induce(train).map_err(wrap)?;
            let spec = train.spec.clone();
            Ok(AttrModel::new(class_attr, spec, classifier, Vec::new(), 0))
        }
    }
}

/// Materialize a predicted class code as a concrete cell value for the
/// class attribute: nominal codes become nominal values, bin codes
/// become the bin's representative point (day-rounded for dates).
pub(crate) fn materialize_class(
    schema: &Schema,
    attr: AttrIdx,
    spec: &ClassSpec,
    code: u32,
) -> Value {
    match spec {
        ClassSpec::Nominal { .. } => Value::Nominal(code),
        ClassSpec::Binned { binning } => {
            let x = binning.representative(code);
            match schema.attr(attr).ty {
                AttrType::Date { .. } => Value::Date(x.round() as i64),
                _ => Value::Number(x),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_table::{BatchSource, SchemaBuilder};

    /// The QUIS anecdote shape, scaled: BRV=404 ⇒ GBM=901 (`n1` clean
    /// instances + 1 deviation appended last), BRV=501 ⇒ GBM=911 (`n2`).
    fn anecdote(n1: usize, n2: usize) -> Table {
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for _ in 0..n1 {
            t.push_row(&[Value::Nominal(0), Value::Nominal(0)]).unwrap();
        }
        for _ in 0..n2 {
            t.push_row(&[Value::Nominal(1), Value::Nominal(1)]).unwrap();
        }
        t.push_row(&[Value::Nominal(0), Value::Nominal(1)]).unwrap(); // the error
        t
    }

    /// The paper's exact sizes (16118 supporting instances).
    fn quis_anecdote() -> Table {
        anecdote(16_117, 2000)
    }

    #[test]
    fn flags_the_quis_deviation_with_paper_confidence() {
        let t = quis_anecdote();
        let auditor = Auditor::default();
        let (model, report) = auditor.run(&t).unwrap();
        assert!(model.n_rules() > 0);
        let deviant = t.n_rows() - 1;
        assert!(report.is_flagged(deviant), "the deviation must be flagged");
        // "The data auditing tool assigns an error confidence of 99,95%
        // to this instance and ranks it first."
        assert!(report.best_finding_for(deviant).unwrap().confidence > 0.999);
        assert_eq!(report.findings[0].row, deviant);
        // The suggestion restores the rule.
        let f = report.best_finding_for(deviant).unwrap();
        assert_eq!(f.proposed, Value::Nominal(0));
        // Clean records stay unflagged.
        assert!(!report.is_flagged(0));
        assert!(!report.is_flagged(16_117 + 100));
    }

    #[test]
    fn induction_and_detection_run_asynchronously() {
        let train = anecdote(2000, 400);
        let auditor = Auditor::default();
        let model = auditor.induce(&train).unwrap();
        // Fresh data, checked against the prepared structure.
        let schema = train.schema().clone();
        let mut fresh = Table::new(schema);
        fresh.push_row(&[Value::Nominal(0), Value::Nominal(0)]).unwrap(); // fine
        fresh.push_row(&[Value::Nominal(0), Value::Nominal(1)]).unwrap(); // violates
        let report = auditor.detect(&model, &fresh);
        assert!(!report.is_flagged(0));
        assert!(report.is_flagged(1));
    }

    #[test]
    fn nulls_are_flagged_for_completeness() {
        let train = anecdote(2000, 400);
        let auditor = Auditor::default();
        let model = auditor.induce(&train).unwrap();
        let mut fresh = Table::new(train.schema().clone());
        fresh.push_row(&[Value::Nominal(0), Value::Null]).unwrap();
        let report = auditor.detect(&model, &fresh);
        assert!(report.is_flagged(0), "strongly predicted NULL must be flagged");
        let f = report.best_finding_for(0).unwrap();
        assert_eq!(f.observed, Value::Null);
        assert_eq!(f.proposed, Value::Nominal(0));
        // With flag_nulls off the record passes.
        let quiet = Auditor::new(AuditConfig { flag_nulls: false, ..AuditConfig::default() });
        let model = quiet.induce(&train).unwrap();
        let report = quiet.detect(&model, &fresh);
        assert!(!report.is_flagged(0));
    }

    #[test]
    fn numeric_class_attributes_are_binned_and_flagged() {
        // x (nominal) determines n (numeric): x = lo ⇒ n ≈ 10,
        // x = hi ⇒ n ≈ 90.
        let schema = SchemaBuilder::new()
            .nominal("x", ["lo", "hi"])
            .numeric("n", 0.0, 100.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..2000 {
            let (x, n) =
                if i % 2 == 0 { (0, 10.0 + (i % 10) as f64) } else { (1, 90.0 + (i % 10) as f64) };
            t.push_row(&[Value::Nominal(x), Value::Number(n)]).unwrap();
        }
        t.push_row(&[Value::Nominal(0), Value::Number(95.0)]).unwrap(); // deviates
        let auditor = Auditor::new(AuditConfig { bins: 4, ..AuditConfig::default() });
        let (_, report) = auditor.run(&t).unwrap();
        let deviant = t.n_rows() - 1;
        assert!(report.is_flagged(deviant));
        // Both directions flag the record (x-from-n and n-from-x); the
        // numeric classifier's finding must propose a concrete value
        // from the low bins.
        let f = report
            .findings
            .iter()
            .find(|f| f.row == deviant && f.attr == 1)
            .expect("numeric classifier must flag the deviation");
        match f.proposed {
            Value::Number(x) => assert!(x < 50.0, "proposed {x}"),
            ref other => panic!("expected numeric proposal, got {other:?}"),
        }
    }

    #[test]
    fn nan_in_a_numeric_class_is_binned_like_null() {
        // A table built in memory admits NaN (`push_row_lenient`); the
        // CSV reader refuses it. Induction must not panic on it.
        let schema = SchemaBuilder::new()
            .nominal("x", ["lo", "hi"])
            .numeric("n", 0.0, 100.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..200 {
            let (x, n) = if i % 2 == 0 { (0, 10.0) } else { (1, 90.0) };
            t.push_row(&[Value::Nominal(x), Value::Number(n)]).unwrap();
        }
        t.push_row_lenient(&[Value::Nominal(0), Value::Number(f64::NAN)]).unwrap();
        assert_eq!(t.n_rows(), 201);
        let auditor = Auditor::new(AuditConfig { bins: 4, ..AuditConfig::default() });
        let model = auditor.induce(&t).expect("NaN is a missing class value, not a panic");
        let report = auditor.detect(&model, &t);
        // The same table with NULL for NaN audits to the same findings.
        let mut with_null = t.slice_rows(0, 200).unwrap();
        with_null.push_row(&[Value::Nominal(0), Value::Null]).unwrap();
        let null_report = auditor.detect(&auditor.induce(&with_null).unwrap(), &with_null);
        let key = |f: &crate::Finding| (f.row, f.attr, f.proposed, f.confidence);
        assert_eq!(
            report.findings.iter().map(key).collect::<Vec<_>>(),
            null_report.findings.iter().map(key).collect::<Vec<_>>()
        );
        // Like a strongly predicted NULL, the NaN is flagged as missing.
        let f = report.best_finding_for(200).expect("the NaN row is flagged");
        assert_eq!((f.attr, f.proposed), (1, Value::Number(10.0)));
    }

    #[test]
    fn audited_attrs_subset_is_respected() {
        let t = anecdote(2000, 400);
        let auditor =
            Auditor::new(AuditConfig { audited_attrs: Some(vec![0]), ..AuditConfig::default() });
        let (model, report) = auditor.run(&t).unwrap();
        assert_eq!(model.models.len(), 1);
        assert!(report.findings.iter().all(|f| f.attr == 0));
    }

    #[test]
    fn base_attr_overrides_remove_influence() {
        let t = anecdote(2000, 400);
        // GBM's classifier may not look at BRV — no dependency left.
        let auditor = Auditor::new(AuditConfig {
            audited_attrs: Some(vec![1]),
            base_attr_overrides: vec![(1, vec![])],
            ..AuditConfig::default()
        });
        let err = auditor.run(&t);
        // An empty base set cannot split anything: the classifier
        // degenerates to the class prior; the deviation drowns.
        match err {
            Ok((_, report)) => {
                let deviant = t.n_rows() - 1;
                assert!(!report.is_flagged(deviant));
            }
            Err(e) => panic!("empty base set should degrade, not fail: {e}"),
        }
    }

    #[test]
    fn structure_model_renders_constraints() {
        let t = anecdote(2000, 400);
        let (model, _) = Auditor::default().run(&t).unwrap();
        let text = model.render(t.schema());
        assert!(text.contains("→ gbm = 901") || text.contains("→ brv = 404"), "got:\n{text}");
    }

    #[test]
    fn config_validation() {
        let bad = [
            AuditConfig { min_confidence: 1.5, ..AuditConfig::default() },
            AuditConfig { level: 0.0, ..AuditConfig::default() },
            AuditConfig { bins: 1, ..AuditConfig::default() },
        ];
        let t = anecdote(2000, 400);
        for cfg in bad {
            assert!(Auditor::new(cfg).induce(&t).is_err());
        }
        let empty = Table::new(t.schema().clone());
        assert_eq!(Auditor::default().induce(&empty).unwrap_err(), AuditError::EmptyTable);
    }

    #[test]
    fn detect_on_empty_table_yields_clean_empty_report() {
        let train = anecdote(2000, 400);
        let auditor = Auditor::default();
        let model = auditor.induce(&train).unwrap();
        let empty = Table::new(train.schema().clone());
        for threads in [Some(1), Some(4), None] {
            let auditor =
                Auditor::new(AuditConfig { threads: threads.into(), ..AuditConfig::default() });
            let report = auditor.detect(&model, &empty);
            assert_eq!(report.n_rows(), 0);
            assert!(report.findings.is_empty());
            assert_eq!(report.n_suspicious(), 0);
        }
    }

    #[test]
    fn induce_on_single_column_schema_is_a_clean_error() {
        let schema = SchemaBuilder::new().nominal("only", ["a", "b"]).build().unwrap();
        let mut t = Table::new(schema);
        for i in 0..100 {
            t.push_row(&[Value::Nominal(i % 2)]).unwrap();
        }
        for threads in [1, 4] {
            let auditor =
                Auditor::new(AuditConfig { threads: threads.into(), ..AuditConfig::default() });
            assert_eq!(auditor.induce(&t).unwrap_err(), AuditError::SingleColumn);
            assert_eq!(auditor.run(&t).unwrap_err(), AuditError::SingleColumn);
        }
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let t = quis_anecdote();
        let serial =
            Auditor::new(AuditConfig { threads: Parallelism::serial(), ..AuditConfig::default() });
        let (model_s, report_s) = serial.run(&t).unwrap();
        for threads in [2, 4, 7] {
            let par =
                Auditor::new(AuditConfig { threads: threads.into(), ..AuditConfig::default() });
            let (model_p, report_p) = par.run(&t).unwrap();
            assert_eq!(model_p.render(t.schema()), model_s.render(t.schema()));
            assert_eq!(report_p, report_s, "threads={threads}");
        }
    }

    #[test]
    fn induction_errors_surface_identically_in_parallel() {
        // An out-of-range audited attribute fails induction; the
        // parallel fan-out must return the same first-by-index error
        // as the legacy serial loop.
        let t = anecdote(200, 40);
        for threads in [1, 4] {
            let auditor = Auditor::new(AuditConfig {
                audited_attrs: Some(vec![0, 9, 7]),
                threads: threads.into(),
                ..AuditConfig::default()
            });
            match auditor.induce(&t) {
                Err(AuditError::Induction { class_attr, .. }) => assert_eq!(class_attr, 9),
                other => panic!("expected induction error for attribute 9, got {other:?}"),
            }
        }
    }

    /// FNV-1a (64-bit) of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Detect in memory, streamed and batch by batch; check the three
    /// reports agree and flag exactly the rows whose confidence reaches
    /// the threshold; return the report and the per-row confidences.
    fn detect_three_ways(
        auditor: &Auditor,
        model: StructureModel,
        t: &Table,
    ) -> (AuditReport, Vec<f64>) {
        let in_memory = auditor.detect(&model, t);
        let engine = crate::AuditEngine::new(model, t.schema().clone());
        let streamed = engine.detect(t.batches(97)).unwrap();
        let (mut findings, mut confidences) = (Vec::new(), Vec::new());
        let mut batches = t.batches(97);
        while let Some(batch) = batches.next_batch().unwrap() {
            let (f, c) = engine.scan_batch(&batch, confidences.len());
            findings.extend(f);
            confidences.extend(c);
        }
        let per_batch = engine.report(findings, t.n_rows());
        assert_eq!(in_memory, per_batch);
        assert_eq!(streamed, per_batch);
        for (row, c) in confidences.iter().enumerate() {
            assert_eq!(per_batch.is_flagged(row), *c >= per_batch.min_confidence, "row {row}");
        }
        (per_batch, confidences)
    }

    /// The model text and the report bytes (CSV plus every per-row
    /// confidence's bits) on a mixed-type table are frozen. The digests
    /// were recorded while a row-at-a-time reference inducer and a
    /// boxed-tree reference scan were checked to give the same bytes.
    #[test]
    fn columnar_paths_match_frozen_digests() {
        // Mixed-type table: nominal dependency + numeric class + NULLs.
        let schema = SchemaBuilder::new()
            .nominal("x", ["lo", "hi"])
            .numeric("n", 0.0, 100.0)
            .nominal("z", ["a", "b", "c"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..1500 {
            let (x, n) =
                if i % 2 == 0 { (0, 10.0 + (i % 9) as f64) } else { (1, 80.0 + (i % 9) as f64) };
            let z = if i % 13 == 0 { Value::Null } else { Value::Nominal((i % 3) as u32) };
            t.push_row(&[Value::Nominal(x), Value::Number(n), z]).unwrap();
        }
        t.push_row(&[Value::Nominal(0), Value::Number(95.0), Value::Nominal(0)]).unwrap();
        let auditor = Auditor::default();
        let model = auditor.induce(&t).unwrap();
        let rendered = crate::model_io::render_model(&model, t.schema()).unwrap();
        let (report, confidences) = detect_three_ways(&auditor, model, &t);
        assert!(report.n_suspicious() > 0, "the digest must cover flagged rows");
        let mut bytes = report.to_csv(t.schema()).into_bytes();
        for c in &confidences {
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        assert_eq!(fnv1a(rendered.as_bytes()), 0x7670_5cb9_22de_87d2, "model text drifted");
        assert_eq!(fnv1a(&bytes), 0x5954_12ec_96fa_8b25, "report drifted");
    }

    #[test]
    fn c45_config_follows_the_auditor_and_is_recorded() {
        let t = anecdote(2000, 400);
        let auditor = Auditor::new(AuditConfig {
            min_confidence: 0.95,
            level: 0.99,
            ..AuditConfig::default()
        });
        let model = auditor.induce(&t).unwrap();
        let InducerKind::C45(c45) = &model.config().inducer else {
            panic!("default inducer is C4.5");
        };
        assert_eq!(c45.min_detect_conf, 0.95);
        assert_eq!(c45.level, 0.99);
        let rendered = crate::model_io::render_model(&model, t.schema()).unwrap();
        assert!(rendered.contains("config.c45.min-detect-conf = 0.95\n"), "{rendered}");
        assert!(rendered.contains("config.c45.level = 0.99\n"), "{rendered}");
    }

    #[test]
    fn non_c45_models_detect_without_flat_trees() {
        // The columnar scan must fall back to whole-record prediction
        // for classifier families without a flat compilation.
        let t = anecdote(2000, 400);
        let auditor = Auditor::new(AuditConfig {
            inducer: InducerKind::NaiveBayes,
            ..AuditConfig::default()
        });
        let model = auditor.induce(&t).unwrap();
        assert!(model.models.iter().all(|m| m.compiled().is_none()));
        let (report, _) = detect_three_ways(&auditor, model, &t);
        assert!(report.n_suspicious() > 0, "the deviation must be flagged");
    }

    #[test]
    fn alternative_inducers_plug_in() {
        let t = anecdote(2000, 400);
        for kind in [
            InducerKind::NaiveBayes,
            InducerKind::Knn { k: 5 },
            InducerKind::OneR,
            InducerKind::ZeroR,
        ] {
            let auditor = Auditor::new(AuditConfig { inducer: kind, ..AuditConfig::default() });
            let (model, report) = auditor.run(&t).unwrap();
            assert_eq!(model.n_rules(), 0, "only C4.5 yields structure rules");
            assert_eq!(report.n_rows(), t.n_rows());
        }
    }
}
