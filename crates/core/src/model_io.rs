//! Persisted structure models: train once, audit forever.
//!
//! The paper separates the two audit phases so that "the
//! time-consuming structure induction can be prepared off-line" while
//! "new data can be checked for deviations and loaded quickly" — which
//! only pays off if the induced structure model survives the process
//! that induced it. This module gives [`StructureModel`] a versioned,
//! std-only, human-diffable text format:
//!
//! ```text
//! dq-structure-model v1
//! schema-fingerprint = 91c5b01906c124f7
//! min-inst = 11
//! models = 2
//! config.min-confidence = 0.8
//! config.level = 0.95
//! …
//!
//! model attr = 1 (gbm)
//! class = nominal 2
//! deleted-rules = 0
//! tree = S a=0 k=nominal n=2 f=0.8895…,0.1104… c=16118,2000
//! tree = L c=16117,1 e=1
//! tree = L c=0,2000 e=1
//! rule brv = 404 -> gbm = 901 ; n=16118 conf=0.9995
//! rule brv = 501 -> gbm = 911 ; n=2000 conf=0.9995
//! end
//! ```
//!
//! Design points:
//!
//! * **Exactness.** The `tree =` lines serialize the induced C4.5
//!   trees *structurally* — every leaf count, missing-value routing
//!   fraction and threshold as a shortest-round-trip decimal — so a
//!   loaded model's deviation detection is **byte-identical** to the
//!   in-memory model's. (Rust's float formatting guarantees
//!   `format!("{x}").parse::<f64>() == x` for every finite `x`.)
//! * **Schema safety.** The header embeds the
//!   [`dq_table::Schema::fingerprint`] of the training relation;
//!   loading against a schema with a different fingerprint fails with
//!   [`AuditError::SchemaFingerprint`], so a model can never silently
//!   audit the wrong relation.
//! * **Provenance.** The full [`AuditConfig`] that produced the model
//!   is recorded in `config.*` lines and reconstructed on load (except
//!   `threads`, a runtime knob that does not influence results).
//! * **Readable constraints.** Each structure-model rule is also
//!   rendered as a `rule` line in the `dq_logic` grammar (`and`, `->`,
//!   with `<=`/`>=` sugar for thresholds and bins); loading re-parses
//!   every `rule` line through [`dq_logic::parse_rule`], so the
//!   human-facing rendering is validated against the schema on every
//!   round-trip. Rules the grammar cannot carry (e.g. labels with
//!   spaces) degrade to `# rule!` comments.
//!
//! Only C4.5 models are persistable: the other classifier families
//! (naive Bayes, kNN, …) produce no structure model in the paper's
//! sense and are rejected with [`AuditError::Persistence`].

use crate::auditor::{AttrModel, AuditConfig, StructureModel};
use crate::error::AuditError;
use dq_mining::{
    C45Config, ClassSpec, Condition, ConditionTest, DecisionTree, InducerKind, Node, Pruning,
    SplitCriterion, SplitKind, TreeRule,
};
use dq_table::{date::civil_from_days, AttrIdx, AttrType, Binning, Schema, TableError};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// The version line every model file starts with.
const HEADER: &str = "dq-structure-model v1";

/// The largest `config.c45.max-depth` a model file may declare. Trees
/// are rebuilt, compiled and rendered recursively, one stack frame per
/// level, and the depth line is as untrusted as the tree lines it
/// bounds; induced trees stay far below this (the default bound is 64).
const MAX_TREE_DEPTH: usize = 1024;

// ---------------------------------------------------------------------------
// Saving
// ---------------------------------------------------------------------------

/// Render `model` in the canonical v1 text format.
pub fn render_model(model: &StructureModel, schema: &Schema) -> Result<String, AuditError> {
    let cfg = model.config();
    let c45 = match &cfg.inducer {
        InducerKind::C45(c45) => c45,
        other => {
            return Err(AuditError::Persistence(format!(
                "only C4.5 structure models are persistable, this model was induced with `{}`",
                other.name()
            )))
        }
    };
    let mut out = String::with_capacity(4096);
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("schema-fingerprint = {:016x}\n", schema.fingerprint()));
    out.push_str(&format!("min-inst = {}\n", model.min_inst));
    out.push_str(&format!("models = {}\n", model.models.len()));
    out.push_str(&format!("config.min-confidence = {}\n", cfg.min_confidence));
    out.push_str(&format!("config.level = {}\n", cfg.level));
    out.push_str(&format!("config.bins = {}\n", cfg.bins));
    out.push_str(&format!("config.derive-min-inst = {}\n", cfg.derive_min_inst));
    out.push_str(&format!("config.delete-undetecting-rules = {}\n", cfg.delete_undetecting_rules));
    out.push_str(&format!("config.flag-nulls = {}\n", cfg.flag_nulls));
    out.push_str(&format!("config.audited-attrs = {}\n", render_attr_list(&cfg.audited_attrs)));
    out.push_str(&format!(
        "config.base-attr-overrides = {}\n",
        render_overrides(&cfg.base_attr_overrides)
    ));
    out.push_str("config.inducer = c4.5\n");
    out.push_str(&format!("config.c45.criterion = {}\n", render_criterion(c45.criterion)));
    out.push_str(&format!("config.c45.pruning = {}\n", render_pruning(c45.pruning)));
    out.push_str(&format!("config.c45.level = {}\n", c45.level));
    out.push_str(&format!("config.c45.min-inst = {}\n", c45.min_inst));
    out.push_str(&format!("config.c45.min-split = {}\n", c45.min_split));
    out.push_str(&format!("config.c45.min-branch = {}\n", c45.min_branch));
    out.push_str(&format!("config.c45.max-depth = {}\n", c45.max_depth));
    out.push_str(&format!("config.c45.min-detect-conf = {}\n", c45.min_detect_conf));
    for m in &model.models {
        out.push('\n');
        render_attr_model(&mut out, m, schema)?;
    }
    Ok(out)
}

fn render_attr_model(out: &mut String, m: &AttrModel, schema: &Schema) -> Result<(), AuditError> {
    let tree = m.classifier.as_c45().ok_or_else(|| {
        AuditError::Persistence(format!(
            "attribute {} is modelled by `{}`, which has no persistable structure",
            m.class_attr,
            m.classifier.describe()
        ))
    })?;
    out.push_str(&format!("model attr = {} ({})\n", m.class_attr, schema.attr(m.class_attr).name));
    match &m.spec {
        ClassSpec::Nominal { card } => out.push_str(&format!("class = nominal {card}\n")),
        ClassSpec::Binned { binning } => out.push_str(&format!(
            "class = binned {} {}\n",
            binning.n_bins,
            join_f64(&binning.edges)
        )),
    }
    out.push_str(&format!("deleted-rules = {}\n", m.deleted_rules));
    render_node(out, tree.root());
    for r in &m.rules {
        out.push_str(&render_rule_line(r, m, schema));
        out.push('\n');
    }
    out.push_str("end\n");
    Ok(())
}

fn render_node(out: &mut String, node: &Node) {
    match node {
        Node::Leaf { counts, enabled } => {
            out.push_str(&format!("tree = L c={} e={}\n", join_f64(counts), u8::from(*enabled)));
        }
        Node::Split { attr, kind, children, fractions, counts } => {
            let k = match kind {
                SplitKind::Nominal => "nominal".to_string(),
                SplitKind::Threshold(t) => format!("t:{t}"),
            };
            out.push_str(&format!(
                "tree = S a={attr} k={k} n={} f={} c={}\n",
                children.len(),
                join_f64(fractions),
                join_f64(counts)
            ));
            for c in children {
                render_node(out, c);
            }
        }
    }
}

/// Render one structure-model rule as a `rule` line in the `dq_logic`
/// grammar, falling back to a `# rule!` comment when the grammar
/// cannot carry it (empty premise, labels with spaces, …). Emitted
/// lines are guaranteed to re-parse: the renderer is checked against
/// [`dq_logic::parse_rule`] before committing to the `rule` form.
fn render_rule_line(rule: &TreeRule, m: &AttrModel, schema: &Schema) -> String {
    let annotation = format!("; n={:.0} conf={:.4}", rule.support, rule.max_error_confidence);
    if let Some(text) = render_parseable_rule(rule, m, schema) {
        if dq_logic::parse_rule(schema, &text).is_ok() {
            return format!("rule {text} {annotation}");
        }
    }
    let label = m.spec.label_of(schema, m.class_attr, rule.predicted);
    format!("# rule! {} {annotation}", rule.render(schema, m.class_attr, &label))
}

fn render_parseable_rule(rule: &TreeRule, m: &AttrModel, schema: &Schema) -> Option<String> {
    if rule.conditions.is_empty() {
        return None; // the grammar has no unconditional rule form
    }
    let premise = rule
        .conditions
        .iter()
        .map(|c| render_condition(c, schema))
        .collect::<Option<Vec<_>>>()?
        .join(" and ");
    let conclusion = render_conclusion(m.class_attr, &m.spec, rule.predicted, schema)?;
    Some(format!("{premise} -> {conclusion}"))
}

fn render_condition(c: &Condition, schema: &Schema) -> Option<String> {
    let name = &schema.attr(c.attr).name;
    match c.test {
        ConditionTest::Eq(code) => {
            let label = schema.attr(c.attr).label(code)?;
            Some(format!("{name} = {label}"))
        }
        ConditionTest::LessEq(t) => {
            Some(format!("{name} <= {}", render_ordered(c.attr, t, schema)?))
        }
        ConditionTest::Greater(t) => {
            Some(format!("{name} > {}", render_ordered(c.attr, t, schema)?))
        }
    }
}

/// A threshold/edge constant for an ordered attribute: dates render as
/// ISO (the grammar's date constant form) when the day number is
/// integral, numbers as plain decimals.
fn render_ordered(attr: AttrIdx, x: f64, schema: &Schema) -> Option<String> {
    match schema.attr(attr).ty {
        AttrType::Date { .. } => {
            if x.fract() != 0.0 || x.abs() > 1e15 {
                return None;
            }
            let (y, mo, d) = civil_from_days(x as i64);
            Some(format!("{y:04}-{mo:02}-{d:02}"))
        }
        _ => Some(format!("{x}")),
    }
}

/// The conclusion of a structure-model rule. Nominal classes conclude
/// `attr = label`; binned (numeric/date) classes conclude the bin's
/// value range via `<=`/`>` bounds, the all-values bin as `isnotnull`.
fn render_conclusion(
    class_attr: AttrIdx,
    spec: &ClassSpec,
    code: u32,
    schema: &Schema,
) -> Option<String> {
    let name = &schema.attr(class_attr).name;
    match spec {
        ClassSpec::Nominal { .. } => {
            let label = schema.attr(class_attr).label(code)?;
            Some(format!("{name} = {label}"))
        }
        ClassSpec::Binned { binning } => {
            let edges = &binning.edges;
            let b = code as usize;
            if edges.is_empty() {
                return Some(format!("{name} isnotnull"));
            }
            if b == 0 {
                return Some(format!(
                    "{name} <= {}",
                    render_ordered(class_attr, edges[0], schema)?
                ));
            }
            if b >= edges.len() {
                let last = render_ordered(class_attr, edges[edges.len() - 1], schema)?;
                return Some(format!("{name} > {last}"));
            }
            let lo = render_ordered(class_attr, edges[b - 1], schema)?;
            let hi = render_ordered(class_attr, edges[b], schema)?;
            Some(format!("{name} > {lo} and {name} <= {hi}"))
        }
    }
}

fn render_attr_list(list: &Option<Vec<AttrIdx>>) -> String {
    match list {
        None => "all".to_string(),
        Some(attrs) => {
            if attrs.is_empty() {
                "(empty)".to_string()
            } else {
                attrs.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",")
            }
        }
    }
}

fn render_overrides(overrides: &[(AttrIdx, Vec<AttrIdx>)]) -> String {
    if overrides.is_empty() {
        return "none".to_string();
    }
    overrides
        .iter()
        .map(|(attr, bases)| {
            let bases = bases.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(",");
            format!("{attr}:{bases}")
        })
        .collect::<Vec<_>>()
        .join(";")
}

fn render_criterion(c: SplitCriterion) -> &'static str {
    match c {
        SplitCriterion::InfoGain => "info-gain",
        SplitCriterion::GainRatio => "gain-ratio",
    }
}

fn render_pruning(p: Pruning) -> &'static str {
    match p {
        Pruning::None => "none",
        Pruning::PessimisticError => "pessimistic-error",
        Pruning::ExpectedErrorConfidence => "expected-error-confidence",
        Pruning::ExpectedErrorConfidenceRaw => "expected-error-confidence-raw",
    }
}

fn join_f64(xs: &[f64]) -> String {
    if xs.is_empty() {
        return "-".to_string();
    }
    xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

struct ModelReader<'a, R: BufRead> {
    schema: &'a Schema,
    lines: std::io::Lines<R>,
    line_no: usize,
}

impl<'a, R: BufRead> ModelReader<'a, R> {
    fn bad(&self, msg: impl Into<String>) -> AuditError {
        AuditError::Persistence(format!("line {}: {}", self.line_no, msg.into()))
    }

    /// Next line, trimmed of line endings; `None` at EOF.
    fn next_line(&mut self) -> Result<Option<String>, AuditError> {
        match self.lines.next() {
            None => Ok(None),
            Some(Err(e)) => Err(AuditError::Table(TableError::from(e))),
            Some(Ok(l)) => {
                self.line_no += 1;
                Ok(Some(l.trim_end_matches('\r').to_string()))
            }
        }
    }

    /// Next significant line: skips blanks and `#` comments.
    fn next_significant(&mut self) -> Result<Option<String>, AuditError> {
        loop {
            match self.next_line()? {
                None => return Ok(None),
                Some(l) if l.trim().is_empty() || l.trim_start().starts_with('#') => continue,
                Some(l) => return Ok(Some(l)),
            }
        }
    }

    fn parse_f64(&self, s: &str) -> Result<f64, AuditError> {
        s.parse::<f64>().map_err(|_| self.bad(format!("`{s}` is not a number")))
    }

    fn parse_usize(&self, s: &str) -> Result<usize, AuditError> {
        s.parse::<usize>().map_err(|_| self.bad(format!("`{s}` is not an unsigned integer")))
    }

    fn parse_bool(&self, s: &str) -> Result<bool, AuditError> {
        s.parse::<bool>().map_err(|_| self.bad(format!("`{s}` is not a boolean")))
    }

    fn parse_f64_list(&self, s: &str) -> Result<Vec<f64>, AuditError> {
        if s == "-" {
            return Ok(Vec::new());
        }
        s.split(',').map(|x| self.parse_f64(x)).collect()
    }
}

/// Read a structure model from its v1 text form, validating the schema
/// fingerprint, the format version and every `rule` line (through the
/// `dq_logic` parser) along the way.
pub fn parse_model<R: BufRead>(schema: &Schema, input: R) -> Result<StructureModel, AuditError> {
    let mut r = ModelReader { schema, lines: input.lines(), line_no: 0 };
    match r.next_line()? {
        Some(l) if l == HEADER => {}
        Some(l) => {
            return Err(r.bad(format!("expected header `{HEADER}`, got `{l}`")));
        }
        None => return Err(AuditError::Persistence("empty model file".into())),
    }

    // --- header key = value block -------------------------------------
    let mut header: Vec<(String, String)> = Vec::new();
    let mut first_model_line: Option<String> = None;
    while let Some(line) = r.next_significant()? {
        if line.starts_with("model attr") {
            first_model_line = Some(line);
            break;
        }
        let (key, value) = line
            .split_once(" = ")
            .ok_or_else(|| r.bad(format!("expected `key = value`, got `{line}`")))?;
        header.push((key.to_string(), value.to_string()));
    }
    let get = |key: &str| -> Result<&str, AuditError> {
        header
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| AuditError::Persistence(format!("missing header field `{key}`")))
    };

    let found = u64::from_str_radix(get("schema-fingerprint")?, 16)
        .map_err(|_| AuditError::Persistence("malformed schema fingerprint".into()))?;
    let expected = schema.fingerprint();
    if found != expected {
        return Err(AuditError::SchemaFingerprint { expected, found });
    }
    if get("config.inducer")? != "c4.5" {
        return Err(AuditError::Persistence(format!(
            "unsupported inducer `{}` in model file",
            get("config.inducer")?
        )));
    }
    let c45 = C45Config {
        criterion: parse_criterion(get("config.c45.criterion")?)?,
        pruning: parse_pruning(get("config.c45.pruning")?)?,
        level: r.parse_f64(get("config.c45.level")?)?,
        min_inst: r.parse_f64(get("config.c45.min-inst")?)?,
        min_split: r.parse_f64(get("config.c45.min-split")?)?,
        min_branch: r.parse_f64(get("config.c45.min-branch")?)?,
        max_depth: r.parse_usize(get("config.c45.max-depth")?)?,
        min_detect_conf: r.parse_f64(get("config.c45.min-detect-conf")?)?,
    };
    if c45.max_depth > MAX_TREE_DEPTH {
        return Err(AuditError::Persistence(format!(
            "config.c45.max-depth = {} exceeds the loader's limit of {MAX_TREE_DEPTH}",
            c45.max_depth
        )));
    }
    let max_depth = c45.max_depth;
    let config = AuditConfig {
        inducer: InducerKind::C45(c45),
        min_confidence: r.parse_f64(get("config.min-confidence")?)?,
        level: r.parse_f64(get("config.level")?)?,
        bins: r.parse_usize(get("config.bins")?)?,
        derive_min_inst: r.parse_bool(get("config.derive-min-inst")?)?,
        delete_undetecting_rules: r.parse_bool(get("config.delete-undetecting-rules")?)?,
        flag_nulls: r.parse_bool(get("config.flag-nulls")?)?,
        audited_attrs: parse_attr_list(get("config.audited-attrs")?)?,
        base_attr_overrides: parse_overrides(get("config.base-attr-overrides")?)?,
        threads: dq_exec::Parallelism::AUTO, // runtime knob, never persisted
    };
    let min_inst = r.parse_f64(get("min-inst")?)?;
    let n_models = r.parse_usize(get("models")?)?;

    // --- model sections ------------------------------------------------
    // `n_models` is untrusted until the sections are counted, so it
    // sizes nothing.
    let mut models = Vec::new();
    let mut section_line = first_model_line;
    while let Some(line) = section_line.take() {
        models.push(parse_attr_model(&mut r, &line, config.level, max_depth)?);
        section_line = r.next_significant()?;
        if let Some(l) = &section_line {
            if !l.starts_with("model attr") {
                return Err(r.bad(format!("expected `model attr = …` or EOF, got `{l}`")));
            }
        }
    }
    if models.len() != n_models {
        return Err(AuditError::Persistence(format!(
            "header promises {n_models} models, file contains {}",
            models.len()
        )));
    }
    Ok(StructureModel { models, min_inst, config })
}

fn parse_attr_model<R: BufRead>(
    r: &mut ModelReader<'_, R>,
    header_line: &str,
    level: f64,
    max_depth: usize,
) -> Result<AttrModel, AuditError> {
    // `model attr = <idx> (<name>)` — the name is documentation only;
    // the fingerprint already pinned the schema.
    let rest = header_line
        .strip_prefix("model attr = ")
        .ok_or_else(|| r.bad(format!("expected `model attr = …`, got `{header_line}`")))?;
    let idx_text = rest.split_whitespace().next().unwrap_or("");
    let class_attr = r.parse_usize(idx_text)?;
    if class_attr >= r.schema.len() {
        return Err(r.bad(format!("model attribute {class_attr} out of schema range")));
    }

    let class_line =
        r.next_significant()?.ok_or_else(|| r.bad("unexpected EOF, expected `class = …`"))?;
    let spec = parse_class_spec(r, &class_line)?;

    let deleted_line = r
        .next_significant()?
        .ok_or_else(|| r.bad("unexpected EOF, expected `deleted-rules = …`"))?;
    let deleted_rules =
        r.parse_usize(deleted_line.strip_prefix("deleted-rules = ").ok_or_else(|| {
            r.bad(format!("expected `deleted-rules = …`, got `{deleted_line}`"))
        })?)?;

    // Tree lines (pre-order), then rule lines, then `end`.
    let mut specs: Vec<NodeSpec> = Vec::new();
    let mut n_rule_lines = 0usize;
    loop {
        let line =
            r.next_significant()?.ok_or_else(|| r.bad("unexpected EOF inside model section"))?;
        if line == "end" {
            break;
        }
        if let Some(node) = line.strip_prefix("tree = ") {
            if n_rule_lines > 0 {
                return Err(r.bad("`tree =` lines must precede `rule` lines"));
            }
            specs.push(parse_node_spec(r, node, spec.card() as usize)?);
        } else if let Some(rule) = line.strip_prefix("rule ") {
            // The human-facing constraint rendering must stay parseable
            // against the schema — the dq_logic round-trip guarantee.
            let text = rule.split(" ; ").next().unwrap_or(rule);
            dq_logic::parse_rule(r.schema, text)
                .map_err(|e| r.bad(format!("rule line does not parse: {e}")))?;
            n_rule_lines += 1;
        } else {
            return Err(r.bad(format!("unexpected line in model section: `{line}`")));
        }
    }
    if specs.is_empty() {
        return Err(r.bad("model section has no tree"));
    }
    // Checked before assembly: `build_node` recurses once per level.
    let depth = tree_depth(&specs);
    if depth > max_depth {
        return Err(r.bad(format!("tree depth {depth} exceeds config.c45.max-depth = {max_depth}")));
    }
    let mut pos = 0usize;
    let root = build_node(r, &specs, &mut pos)?;
    if pos != specs.len() {
        return Err(r.bad(format!(
            "tree has {} trailing node line(s) not reachable from the root",
            specs.len() - pos
        )));
    }
    let tree = DecisionTree::from_parts(root, spec.card(), class_attr, level);
    let rules = tree.to_rules();
    // AttrModel::new compiles the flat evaluator here, at load time —
    // a loaded model detects at the same speed as a freshly induced one.
    Ok(AttrModel::new(class_attr, spec, Box::new(tree), rules, deleted_rules))
}

fn parse_class_spec<R: BufRead>(
    r: &ModelReader<'_, R>,
    line: &str,
) -> Result<ClassSpec, AuditError> {
    let rest = line
        .strip_prefix("class = ")
        .ok_or_else(|| r.bad(format!("expected `class = …`, got `{line}`")))?;
    let mut parts = rest.split_whitespace();
    match parts.next() {
        Some("nominal") => {
            let card = r.parse_usize(parts.next().unwrap_or(""))? as u32;
            if card == 0 {
                return Err(r.bad("nominal class with zero labels"));
            }
            Ok(ClassSpec::Nominal { card })
        }
        Some("binned") => {
            let n_bins = r.parse_usize(parts.next().unwrap_or(""))?;
            let edges = r.parse_f64_list(parts.next().unwrap_or("-"))?;
            if n_bins != edges.len() + 1 {
                return Err(r.bad(format!(
                    "binned class declares {n_bins} bins but carries {} edge(s)",
                    edges.len()
                )));
            }
            Ok(ClassSpec::Binned { binning: Binning { edges, n_bins } })
        }
        other => Err(r.bad(format!("unknown class spec `{}`", other.unwrap_or("")))),
    }
}

/// One parsed `tree =` line, before tree assembly.
enum NodeSpec {
    Leaf {
        counts: Vec<f64>,
        enabled: bool,
    },
    Split {
        attr: AttrIdx,
        kind: SplitKind,
        n_children: usize,
        fractions: Vec<f64>,
        counts: Vec<f64>,
    },
}

/// Parse one `tree =` line. `card` is the class cardinality declared by
/// the section's `class =` line: every count vector in the tree must
/// have exactly that arity, and threshold splits exactly two children —
/// the flat evaluator indexes count slices by class code, so a wrong
/// arity that slipped through here would panic at *detection* time
/// instead of failing the load with a typed error.
fn parse_node_spec<R: BufRead>(
    r: &ModelReader<'_, R>,
    text: &str,
    card: usize,
) -> Result<NodeSpec, AuditError> {
    let check_arity = |counts: &[f64]| -> Result<(), AuditError> {
        if counts.len() != card {
            return Err(r.bad(format!(
                "count vector has {} entr{}, class declares {card} code(s)",
                counts.len(),
                if counts.len() == 1 { "y" } else { "ies" }
            )));
        }
        Ok(())
    };
    let mut parts = text.split_whitespace();
    match parts.next() {
        Some("L") => {
            let mut counts = None;
            let mut enabled = None;
            for field in parts {
                if let Some(v) = field.strip_prefix("c=") {
                    counts = Some(r.parse_f64_list(v)?);
                } else if let Some(v) = field.strip_prefix("e=") {
                    enabled = Some(v == "1");
                } else {
                    return Err(r.bad(format!("unknown leaf field `{field}`")));
                }
            }
            let counts = counts.ok_or_else(|| r.bad("leaf without counts"))?;
            check_arity(&counts)?;
            Ok(NodeSpec::Leaf {
                counts,
                enabled: enabled.ok_or_else(|| r.bad("leaf without enabled flag"))?,
            })
        }
        Some("S") => {
            let (mut attr, mut kind, mut n, mut fractions, mut counts) =
                (None, None, None, None, None);
            for field in parts {
                if let Some(v) = field.strip_prefix("a=") {
                    attr = Some(r.parse_usize(v)?);
                } else if let Some(v) = field.strip_prefix("k=") {
                    kind = Some(if v == "nominal" {
                        SplitKind::Nominal
                    } else if let Some(t) = v.strip_prefix("t:") {
                        SplitKind::Threshold(r.parse_f64(t)?)
                    } else {
                        return Err(r.bad(format!("unknown split kind `{v}`")));
                    });
                } else if let Some(v) = field.strip_prefix("n=") {
                    n = Some(r.parse_usize(v)?);
                } else if let Some(v) = field.strip_prefix("f=") {
                    fractions = Some(r.parse_f64_list(v)?);
                } else if let Some(v) = field.strip_prefix("c=") {
                    counts = Some(r.parse_f64_list(v)?);
                } else {
                    return Err(r.bad(format!("unknown split field `{field}`")));
                }
            }
            let attr = attr.ok_or_else(|| r.bad("split without attribute"))?;
            if attr >= r.schema.len() {
                return Err(r.bad(format!("split attribute {attr} out of schema range")));
            }
            let kind = kind.ok_or_else(|| r.bad("split without kind"))?;
            let n_children = n.ok_or_else(|| r.bad("split without child count"))?;
            let fractions = fractions.ok_or_else(|| r.bad("split without fractions"))?;
            if n_children == 0 || fractions.len() != n_children {
                return Err(r.bad(format!(
                    "split declares {n_children} children but carries {} fraction(s)",
                    fractions.len()
                )));
            }
            // Threshold descent is hard-wired two-way (low/high); any
            // other arity is a corrupted file.
            if matches!(kind, SplitKind::Threshold(_)) && n_children != 2 {
                return Err(r.bad(format!(
                    "threshold split declares {n_children} children, must be exactly 2"
                )));
            }
            let counts = counts.ok_or_else(|| r.bad("split without counts"))?;
            check_arity(&counts)?;
            Ok(NodeSpec::Split { attr, kind, n_children, fractions, counts })
        }
        other => Err(r.bad(format!("unknown tree node kind `{}`", other.unwrap_or("")))),
    }
}

/// Depth of the tree a pre-order node list encodes (a lone leaf has
/// depth 1, as in [`DecisionTree::depth`]), counted without recursion.
fn tree_depth(specs: &[NodeSpec]) -> usize {
    // Children still owed by each split on the path to the current node.
    let mut owed: Vec<usize> = Vec::new();
    let mut depth = 0;
    for spec in specs {
        depth = depth.max(owed.len() + 1);
        match spec {
            NodeSpec::Split { n_children, .. } => owed.push(*n_children),
            // A leaf completes its parent's next child, and every split
            // whose last child that was.
            NodeSpec::Leaf { .. } => {
                while let Some(n) = owed.last_mut() {
                    *n -= 1;
                    if *n > 0 {
                        break;
                    }
                    owed.pop();
                }
            }
        }
    }
    depth
}

/// Assemble the pre-order node list back into a tree.
fn build_node<R: BufRead>(
    r: &ModelReader<'_, R>,
    specs: &[NodeSpec],
    pos: &mut usize,
) -> Result<Node, AuditError> {
    let spec =
        specs.get(*pos).ok_or_else(|| r.bad("tree ended early: a split is missing children"))?;
    *pos += 1;
    match spec {
        NodeSpec::Leaf { counts, enabled } => {
            Ok(Node::Leaf { counts: counts.clone(), enabled: *enabled })
        }
        NodeSpec::Split { attr, kind, n_children, fractions, counts } => {
            let mut children = Vec::with_capacity(*n_children);
            for _ in 0..*n_children {
                children.push(build_node(r, specs, pos)?);
            }
            Ok(Node::Split {
                attr: *attr,
                kind: kind.clone(),
                children,
                fractions: fractions.clone(),
                counts: counts.clone(),
            })
        }
    }
}

fn parse_attr_list(s: &str) -> Result<Option<Vec<AttrIdx>>, AuditError> {
    match s {
        "all" => Ok(None),
        "(empty)" => Ok(Some(Vec::new())),
        list => list
            .split(',')
            .map(|a| {
                a.parse::<usize>()
                    .map_err(|_| AuditError::Persistence(format!("bad attribute index `{a}`")))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
    }
}

fn parse_overrides(s: &str) -> Result<Vec<(AttrIdx, Vec<AttrIdx>)>, AuditError> {
    if s == "none" {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|entry| {
            let (attr, bases) = entry.split_once(':').ok_or_else(|| {
                AuditError::Persistence(format!("bad base-attr override `{entry}`"))
            })?;
            let attr = attr
                .parse::<usize>()
                .map_err(|_| AuditError::Persistence(format!("bad attribute index `{attr}`")))?;
            let bases = if bases.is_empty() {
                Vec::new()
            } else {
                bases
                    .split(',')
                    .map(|b| {
                        b.parse::<usize>().map_err(|_| {
                            AuditError::Persistence(format!("bad attribute index `{b}`"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };
            Ok((attr, bases))
        })
        .collect()
}

fn parse_criterion(s: &str) -> Result<SplitCriterion, AuditError> {
    match s {
        "info-gain" => Ok(SplitCriterion::InfoGain),
        "gain-ratio" => Ok(SplitCriterion::GainRatio),
        other => Err(AuditError::Persistence(format!("unknown split criterion `{other}`"))),
    }
}

fn parse_pruning(s: &str) -> Result<Pruning, AuditError> {
    match s {
        "none" => Ok(Pruning::None),
        "pessimistic-error" => Ok(Pruning::PessimisticError),
        "expected-error-confidence" => Ok(Pruning::ExpectedErrorConfidence),
        "expected-error-confidence-raw" => Ok(Pruning::ExpectedErrorConfidenceRaw),
        other => Err(AuditError::Persistence(format!("unknown pruning strategy `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Convenience surface on StructureModel
// ---------------------------------------------------------------------------

impl StructureModel {
    /// Write the model in the versioned text format (see the module
    /// docs). Fails for non-C4.5 models.
    pub fn save<W: Write>(&self, schema: &Schema, out: W) -> Result<(), AuditError> {
        let mut w = BufWriter::new(out);
        w.write_all(render_model(self, schema)?.as_bytes()).map_err(TableError::from)?;
        w.flush().map_err(TableError::from)?;
        Ok(())
    }

    /// Save to a file path.
    pub fn save_to_path(&self, schema: &Schema, path: impl AsRef<Path>) -> Result<(), AuditError> {
        let file = std::fs::File::create(path).map_err(TableError::from)?;
        self.save(schema, file)
    }

    /// Load a model previously written by [`StructureModel::save`],
    /// validating the format version, the schema fingerprint and every
    /// rendered rule line. The loaded model's deviation detection is
    /// byte-identical to the saved model's.
    pub fn load<R: BufRead>(schema: &Schema, input: R) -> Result<StructureModel, AuditError> {
        parse_model(schema, input)
    }

    /// Load from a file path.
    pub fn load_from_path(
        schema: &Schema,
        path: impl AsRef<Path>,
    ) -> Result<StructureModel, AuditError> {
        let file = std::fs::File::open(path).map_err(TableError::from)?;
        StructureModel::load(schema, BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::Auditor;
    use dq_table::{SchemaBuilder, Table, Value};

    /// A mixed-type table with enough structure to grow real trees:
    /// `gbm` depends on `brv`, `n` depends on `x`, plus a date column.
    fn mixed_table() -> Table {
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .nominal("x", ["lo", "hi"])
            .numeric("n", 0.0, 100.0)
            .date_ymd("d", (2000, 1, 1), (2010, 1, 1))
            .build()
            .unwrap();
        let base = dq_table::date::days_from_civil(2001, 1, 1);
        let mut t = Table::new(schema);
        for i in 0..800 {
            let (brv, gbm) = if i % 3 == 0 { (1, 1) } else { (0, 0) };
            let (x, n) =
                if i % 2 == 0 { (0, 10.0 + (i % 7) as f64) } else { (1, 80.0 + (i % 7) as f64) };
            let d = if i % 11 == 0 { Value::Null } else { Value::Date(base + (i % 50) as i64) };
            t.push_row(&[
                Value::Nominal(brv),
                Value::Nominal(gbm),
                Value::Nominal(x),
                Value::Number(n),
                d,
            ])
            .unwrap();
        }
        t.push_row(&[
            Value::Nominal(0),
            Value::Nominal(1), // violates brv -> gbm
            Value::Nominal(0),
            Value::Number(95.0), // violates x -> n
            Value::Date(base),
        ])
        .unwrap();
        t
    }

    #[test]
    fn save_load_save_is_byte_stable() {
        let t = mixed_table();
        let auditor = Auditor::default();
        let model = auditor.induce(&t).unwrap();
        let first = render_model(&model, t.schema()).unwrap();
        let loaded = StructureModel::load(t.schema(), first.as_bytes()).unwrap();
        let second = render_model(&loaded, t.schema()).unwrap();
        assert_eq!(first, second, "save → load → save must be byte-stable");
    }

    #[test]
    fn loaded_model_detects_identically() {
        let t = mixed_table();
        let auditor = Auditor::default();
        let model = auditor.induce(&t).unwrap();
        let in_memory = auditor.detect(&model, &t);

        let mut buf = Vec::new();
        model.save(t.schema(), &mut buf).unwrap();
        let loaded = StructureModel::load(t.schema(), buf.as_slice()).unwrap();
        let from_disk = auditor.detect(&loaded, &t);

        assert_eq!(from_disk, in_memory);
        assert_eq!(loaded.n_rules(), model.n_rules());
        assert_eq!(loaded.min_inst, model.min_inst);
        assert_eq!(loaded.render(t.schema()), model.render(t.schema()));
        let per_row = |m| crate::AuditEngine::new(m, t.schema().clone()).scan_batch(&t, 0).1;
        assert_eq!(per_row(loaded), per_row(model));
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let t = mixed_table();
        let model = Auditor::default().induce(&t).unwrap();
        let mut buf = Vec::new();
        model.save(t.schema(), &mut buf).unwrap();
        let other = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911", "921"]) // one extra label
            .nominal("x", ["lo", "hi"])
            .numeric("n", 0.0, 100.0)
            .date_ymd("d", (2000, 1, 1), (2010, 1, 1))
            .build()
            .unwrap();
        match StructureModel::load(&other, buf.as_slice()) {
            Err(AuditError::SchemaFingerprint { expected, found }) => {
                assert_eq!(expected, other.fingerprint());
                assert_eq!(found, t.schema().fingerprint());
            }
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn rule_lines_parse_through_the_logic_grammar() {
        let t = mixed_table();
        let model = Auditor::default().induce(&t).unwrap();
        let text = render_model(&model, t.schema()).unwrap();
        let mut n_rules = 0;
        for line in text.lines() {
            if let Some(rule) = line.strip_prefix("rule ") {
                let rule_text = rule.split(" ; ").next().unwrap();
                dq_logic::parse_rule(t.schema(), rule_text)
                    .unwrap_or_else(|e| panic!("`{rule_text}` must parse: {e}"));
                n_rules += 1;
            }
        }
        assert!(n_rules > 0, "the mixed table must yield parseable constraint lines:\n{text}");
    }

    #[test]
    fn non_c45_models_are_not_persistable() {
        let t = mixed_table();
        let auditor = Auditor::new(crate::auditor::AuditConfig {
            inducer: InducerKind::NaiveBayes,
            ..Default::default()
        });
        let model = auditor.induce(&t).unwrap();
        match render_model(&model, t.schema()) {
            Err(AuditError::Persistence(msg)) => assert!(msg.contains("naive-bayes"), "{msg}"),
            other => panic!("expected a persistence error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_files_fail_with_located_errors() {
        let t = mixed_table();
        let schema = t.schema();
        let model = Auditor::default().induce(&t).unwrap();
        let good = render_model(&model, schema).unwrap();

        // Wrong version line.
        let err = StructureModel::load(schema.as_ref(), "dq-structure-model v9\n".as_bytes())
            .unwrap_err();
        assert!(matches!(err, AuditError::Persistence(_)), "{err:?}");
        // Empty file.
        assert!(StructureModel::load(schema.as_ref(), "".as_bytes()).is_err());
        // Truncated tree: drop the last leaf line.
        let truncated: String = {
            let mut lines: Vec<&str> = good.lines().collect();
            let last_leaf =
                lines.iter().rposition(|l| l.starts_with("tree = L")).expect("has leaves");
            lines.remove(last_leaf);
            lines.join("\n") + "\n"
        };
        assert!(StructureModel::load(schema.as_ref(), truncated.as_bytes()).is_err());
        // A corrupted rule line must be caught by the logic parser.
        let broken = good.replacen("rule ", "rule nonsense!! ", 1);
        if broken != good {
            let err = StructureModel::load(schema.as_ref(), broken.as_bytes()).unwrap_err();
            assert!(matches!(err, AuditError::Persistence(_)), "{err:?}");
        }
        // Header promises more models than the file carries.
        let fewer = good.replacen("models = ", "models = 9", 1);
        assert!(StructureModel::load(schema.as_ref(), fewer.as_bytes()).is_err());
    }

    #[test]
    fn an_inflated_model_count_is_an_error_not_an_allocation() {
        let t = mixed_table();
        let schema = t.schema();
        let good = render_model(&Auditor::default().induce(&t).unwrap(), schema).unwrap();
        let count = good.lines().find(|l| l.starts_with("models = ")).unwrap();
        let inflated = good.replacen(count, "models = 999999999999999", 1);
        let err = StructureModel::load(schema.as_ref(), inflated.as_bytes()).unwrap_err();
        assert!(matches!(err, AuditError::Persistence(_)), "{err:?}");
        assert!(err.to_string().contains("999999999999999"), "{err}");
    }

    /// `good` with its first tree replaced by a chain of `n_splits`
    /// nested two-way splits (depth `n_splits + 1`) and its declared
    /// `config.c45.max-depth` set to `max_depth`.
    fn with_split_chain(good: &str, n_splits: usize, max_depth: usize) -> String {
        let lines: Vec<&str> = good.lines().collect();
        let first = lines.iter().position(|l| l.starts_with("tree = ")).unwrap();
        let n_tree = lines[first..].iter().take_while(|l| l.starts_with("tree = ")).count();
        let leaf = lines[first..first + n_tree].iter().find(|l| l.starts_with("tree = L")).unwrap();
        let counts = leaf.split_whitespace().find(|f| f.starts_with("c=")).unwrap();
        let split = format!("tree = S a=3 k=t:50 n=2 f=0.5,0.5 {counts}");
        let mut out: Vec<&str> = lines[..first].to_vec();
        for _ in 0..n_splits {
            out.extend([split.as_str(), leaf]);
        }
        out.push(leaf);
        out.extend(&lines[first + n_tree..]);
        let depth_line = good.lines().find(|l| l.starts_with("config.c45.max-depth = ")).unwrap();
        let text = out.join("\n") + "\n";
        text.replacen(depth_line, &format!("config.c45.max-depth = {max_depth}"), 1)
    }

    #[test]
    fn a_tree_deeper_than_its_max_depth_is_an_error_not_a_stack_overflow() {
        let t = mixed_table();
        let schema = t.schema();
        let good = render_model(&Auditor::default().induce(&t).unwrap(), schema).unwrap();

        // Assembling this chain recursively would overflow the stack.
        let deep = with_split_chain(&good, 50_000, 64);
        let err = StructureModel::load(schema.as_ref(), deep.as_bytes()).unwrap_err();
        assert!(matches!(err, AuditError::Persistence(_)), "{err:?}");
        assert!(err.to_string().contains("tree depth 50001"), "{err}");

        // The bound is the file's own max-depth, exact at the boundary.
        let at_bound = with_split_chain(&good, 99, 100);
        StructureModel::load(schema.as_ref(), at_bound.as_bytes()).unwrap();
        let past_bound = with_split_chain(&good, 100, 100);
        let err = StructureModel::load(schema.as_ref(), past_bound.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("tree depth 101"), "{err}");

        // The max-depth line is untrusted too.
        let unbounded = with_split_chain(&good, 50_000, 1_000_000);
        let err = StructureModel::load(schema.as_ref(), unbounded.as_bytes()).unwrap_err();
        assert!(matches!(err, AuditError::Persistence(_)), "{err:?}");
        assert!(err.to_string().contains("max-depth = 1000000"), "{err}");
    }

    #[test]
    fn binned_and_date_conclusions_render_within_the_grammar() {
        let t = mixed_table();
        let model = Auditor::default().induce(&t).unwrap();
        let text = render_model(&model, t.schema()).unwrap();
        // The numeric class attribute must produce range conclusions.
        assert!(
            text.lines().any(|l| l.starts_with("rule ") && l.contains("n <=")),
            "expected a binned conclusion for `n`:\n{text}"
        );
    }
}
