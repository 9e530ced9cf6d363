//! `dq generate` — write benchmark datasets (schema + clean + dirty +
//! ground-truth log) to a directory.

use crate::args::{CliError, Flags};
use crate::checkpoint::{config_fingerprint, csv_header, Job, JobFlags};
use crate::io_util::{log_to_csv, say, write_file, write_table};
use crate::pollute_cmd::{pollute_into, PollutionOutputs, PollutionStart, Tee};
use dq_eval::Baseline;
use dq_pollute::CELLS_CSV_HEADER;
use dq_quis::{generate_quis, QuisConfig};
use dq_table::render_schema;
use dq_tdg::{generate_rule_set, GenerateStream, GEN_CHUNK_ROWS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

pub const USAGE: &str = "dq generate <tdg|quis> --out DIR [--rows N] [--seed N] [--factor X] \
                         [--threads N] [tdg only: --rules N, --stream-chunk-rows N (batch \
                         rows, default 4096), --checkpoint DIR [--resume] \
                         [--checkpoint-every N]]";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let (kind, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage(format!("generate needs a dataset kind\nusage: {USAGE}")))?;
    match kind.as_str() {
        "tdg" => tdg(rest),
        "quis" => quis(rest),
        other => Err(CliError::Usage(format!(
            "unknown dataset kind `{other}` (expected `tdg` or `quis`)"
        ))),
    }
}

/// The sec. 6.1 artificial benchmark: rule-structured data over the
/// 8-attribute baseline schema, polluted by the standard suite.
///
/// Rule generation runs up front; then the clean table streams from
/// [`GenerateStream`] through a clean-CSV [`Tee`] into the pollution
/// loop and out to the dirty CSV — one pass at O(chunk) memory.
/// `--stream-chunk-rows` (default [`GEN_CHUNK_ROWS`]) sets the batch
/// size and never the bytes: generation is chunk-seeded, and
/// pollution consumes its RNG in clean-row order.
///
/// With `--checkpoint DIR` the run journals its progress (clean-row
/// cursor, pollution-RNG state, per-output byte watermarks) at
/// every `--checkpoint-every`-batch boundary; `--resume` continues a
/// killed run from the journal, producing outputs byte-identical to an
/// uninterrupted one — see `dq_job` for the protocol.
fn tdg(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(
        args,
        &[
            "out",
            "rows",
            "rules",
            "seed",
            "factor",
            "threads",
            "stream-chunk-rows",
            "checkpoint",
            "checkpoint-every",
        ],
        &["resume"],
    )?;
    let out = Path::new(flags.require("out")?).to_path_buf();
    let rows: usize = flags.parse_or("rows", 10_000)?;
    let rules: usize = flags.parse_or("rules", 30)?;
    let seed: u64 = flags.parse_or("seed", 2003)?;
    let factor: f64 = flags.parse_or("factor", 1.0)?;
    let threads: Option<usize> = flags.parse_positive_opt("threads")?;
    let chunk_rows: usize = flags.parse_positive_or("stream-chunk-rows", GEN_CHUNK_ROWS)?;
    let job_flags = JobFlags::parse(&flags, USAGE)?;

    // The config fingerprint covers exactly the flags that shape the
    // output bytes; `--threads` is excluded on purpose (resuming under
    // a different worker count is safe).
    let config = config_fingerprint(&[
        ("stage", "generate tdg".into()),
        ("rows", rows.to_string()),
        ("rules", rules.to_string()),
        ("seed", seed.to_string()),
        ("factor", factor.to_string()),
        ("chunk-rows", chunk_rows.to_string()),
    ]);
    let baseline = Baseline::new(seed);
    let mut env = baseline.environment(rules, rows, factor);
    // Generation is byte-identical at any worker count (chunk-seeded
    // RNG streams), so the knob only changes wall-clock time.
    env.generator.data.threads = threads.into();
    let schema = env.generator.schema.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let (rules, _rule_report) = generate_rule_set(&schema, &env.generator.rules, &mut rng);

    let Some(mut job) = Job::start(job_flags.as_ref(), "generate", config, schema.fingerprint())?
    else {
        return Ok(());
    };

    // The small artifacts are pure functions of config+seed: rewriting
    // them on resume reproduces the same bytes.
    write_file(&out.join("schema.dqs"), &render_schema(&schema).map_err(|e| e.to_string())?)?;
    let rules_text: String = rules.iter().map(|r| r.render(&schema) + "\n").collect();
    write_file(&out.join("rules.txt"), &rules_text)?;

    let mut generator =
        GenerateStream::new(schema.clone(), rules.clone(), env.generator.data.clone(), &mut rng)
            .with_batch_rows(chunk_rows);
    // Pollution gets its own RNG at exactly the state generation left
    // the shared one in — the continuation of a single RNG walk.
    let start = PollutionStart::of(&job, StdRng::from_state(rng.state()))?;
    generator
        .seek_to_row(start.cursor)
        .map_err(|e| CliError::Runtime(format!("seeking generator: {e}")))?;
    let clean_path = out.join("clean.csv");
    let header = csv_header(&schema)?;
    let clean = job.bytes("clean.csv", &clean_path, &header)?;
    let dirty = job.bytes("dirty.csv", &out.join("dirty.csv"), &header)?;
    let log = job.bytes(
        "pollution-log.csv",
        &out.join("pollution-log.csv"),
        CELLS_CSV_HEADER.as_bytes(),
    )?;

    let (clean_rows, dirty_rows, corrupted) = pollute_into(
        job,
        Tee::new(generator, Some(clean)),
        env.pollution.clone(),
        start,
        PollutionOutputs { dirty, log: Some(log) },
        &clean_path,
    )?;
    say!(
        "generated tdg benchmark in {} ({chunk_rows}-row chunks): {clean_rows} clean rows, \
         {dirty_rows} dirty rows ({corrupted} corrupted), {} rules",
        out.display(),
        rules.len(),
    );
    say!("files: schema.dqs clean.csv dirty.csv pollution-log.csv rules.txt");
    Ok(())
}

/// The sec. 6.2 QUIS-like engine-composition benchmark.
fn quis(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["out", "rows", "seed", "factor", "threads"])?;
    let out = Path::new(flags.require("out")?).to_path_buf();
    let rows: usize = flags.parse_or("rows", 200_000)?;
    let seed: u64 = flags.parse_or("seed", 2003)?;
    let factor: f64 = flags.parse_or("factor", 1.0)?;
    // The QUIS generator is one sequential RNG walk; the flag is
    // validated for CLI uniformity only.
    let _threads: Option<usize> = flags.parse_positive_opt("threads")?;

    let mut cfg = QuisConfig::default().with_rows(rows);
    cfg.pollution.factor = factor;
    let b = generate_quis(&cfg, &mut StdRng::seed_from_u64(seed));

    let schema = b.clean.schema().clone();
    write_file(&out.join("schema.dqs"), &render_schema(&schema).map_err(|e| e.to_string())?)?;
    write_table(&b.clean, &out.join("clean.csv"))?;
    write_table(&b.dirty, &out.join("dirty.csv"))?;
    write_file(&out.join("pollution-log.csv"), &log_to_csv(&b.log, &schema))?;

    say!(
        "generated quis benchmark in {}: {} clean rows, {} dirty rows ({} corrupted)",
        out.display(),
        b.clean.n_rows(),
        b.dirty.n_rows(),
        b.log.n_corrupted_rows(),
    );
    say!("files: schema.dqs clean.csv dirty.csv pollution-log.csv");
    Ok(())
}
