//! Chaos suite for the checkpoint/resume layer: kill `dq` with abort
//! (true `kill -9` semantics — no destructors, no flushes) at over a
//! hundred seeded commit-boundary kill points across `generate`,
//! `pollute`, and `detect`, resume each victim, and assert every
//! output file is byte-identical to an uninterrupted run. Plus the
//! resume edge cases (mutated config, done job, torn journal, missing
//! journal), the quarantine dead-letter path with its error-budget
//! exit code, and the `dq serve` SIGTERM drain.
//!
//! Kill points use the `dq_job` crash knobs:
//! `DQ_CRASH_BEFORE_COMMIT=k` aborts immediately before the k-th
//! journal save (data flushed, journal stale),
//! `DQ_CRASH_AFTER_COMMITS=k` immediately after it (journal fresh,
//! later data lost). A 2000-row run at `--stream-chunk-rows 64
//! --checkpoint-every 1` commits ~34 times, so the sampled k values
//! cover first, dense-early, mid, and final commits of each stage.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("dq-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `dq` with the crash knobs scrubbed from the inherited
/// environment and `env` applied on top.
fn dq_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dq"));
    cmd.args(args).env_remove("DQ_CRASH_BEFORE_COMMIT").env_remove("DQ_CRASH_AFTER_COMMITS");
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output().expect("spawn dq")
}

fn dq(args: &[&str]) -> Output {
    dq_env(args, &[])
}

fn dq_ok(args: &[&str]) -> String {
    let out = dq(args);
    assert!(
        out.status.success(),
        "dq {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn bytes(path: &str) -> Vec<u8> {
    std::fs::read(Path::new(path)).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn assert_file_eq(reference: &str, got: &str, context: &str) {
    assert!(
        bytes(reference) == bytes(got),
        "{context}: `{got}` differs from reference `{reference}`"
    );
}

const GENERATE_OUTPUTS: &[&str] =
    &["schema.dqs", "clean.csv", "dirty.csv", "pollution-log.csv", "rules.txt"];

/// Sampled kill points: dense over the early commits (initial commit +
/// first batches, where resume state is smallest), then spaced through
/// the middle, ending at the final/done commit of a ~34-save run.
const KILL_AFTER: &[u64] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 20, 25, 30, 33, 34];
/// `BEFORE=1` would abort before the very first save and leave no
/// journal at all (that case is `resume_without_journal_is_refused`),
/// so the BEFORE samples start at 2.
const KILL_BEFORE: &[u64] = &[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 21, 26, 31, 34];

/// One crash-then-resume cycle: run `crash_args` with a crash knob set,
/// and unless the knob was beyond the run's save count (run finished),
/// resume with `resume_args`. Returns whether the victim actually
/// crashed.
fn crash_and_resume(crash_args: &[&str], resume_args: &[&str], knob: (&str, u64)) -> bool {
    let (var, k) = knob;
    let out = dq_env(crash_args, &[(var, &k.to_string())]);
    if out.status.success() {
        return false;
    }
    let resumed = dq(resume_args);
    assert!(
        resumed.status.success(),
        "resume after {var}={k} failed:\nstderr: {}",
        stderr_of(&resumed)
    );
    true
}

#[test]
fn generate_killed_anywhere_resumes_byte_identical() {
    let dir = TempDir::new("gen");
    let reference = dir.path("ref");
    dq_ok(&[
        "generate",
        "tdg",
        "--out",
        &reference,
        "--rows",
        "2000",
        "--rules",
        "6",
        "--seed",
        "11",
        "--stream-chunk-rows",
        "64",
    ]);

    let mut crashes = 0;
    for (var, ks) in
        [("DQ_CRASH_AFTER_COMMITS", KILL_AFTER), ("DQ_CRASH_BEFORE_COMMIT", KILL_BEFORE)]
    {
        for &k in ks {
            let tag = format!("{}-{k}", if var.contains("AFTER") { "after" } else { "before" });
            let out = dir.path(&format!("out-{tag}"));
            let ckpt = dir.path(&format!("ckpt-{tag}"));
            let base = [
                "generate",
                "tdg",
                "--out",
                &out,
                "--rows",
                "2000",
                "--rules",
                "6",
                "--seed",
                "11",
                "--stream-chunk-rows",
                "64",
                "--checkpoint",
                &ckpt,
                "--checkpoint-every",
                "1",
            ];
            let mut resume_args = base.to_vec();
            resume_args.push("--resume");
            if crash_and_resume(&base, &resume_args, (var, k)) {
                crashes += 1;
            }
            let context = format!("generate {var}={k}");
            for file in GENERATE_OUTPUTS {
                assert_file_eq(&format!("{reference}/{file}"), &format!("{out}/{file}"), &context);
            }
        }
    }
    assert!(crashes >= 30, "expected ≥30 real generate crashes, got {crashes}");
}

#[test]
fn pollute_killed_anywhere_resumes_byte_identical() {
    let dir = TempDir::new("pol");
    let data = dir.path("data");
    dq_ok(&["generate", "tdg", "--out", &data, "--rows", "2000", "--rules", "6", "--seed", "11"]);
    let schema = format!("{data}/schema.dqs");
    let clean = format!("{data}/clean.csv");
    let ref_dirty = dir.path("ref-dirty.csv");
    let ref_log = dir.path("ref-log.csv");
    dq_ok(&[
        "pollute",
        "--schema",
        &schema,
        "--input",
        &clean,
        "--output",
        &ref_dirty,
        "--log",
        &ref_log,
        "--factor",
        "1.5",
        "--seed",
        "23",
        "--chunk-rows",
        "64",
    ]);

    let mut crashes = 0;
    for (var, ks) in
        [("DQ_CRASH_AFTER_COMMITS", KILL_AFTER), ("DQ_CRASH_BEFORE_COMMIT", KILL_BEFORE)]
    {
        for &k in ks {
            let tag = format!("{}-{k}", if var.contains("AFTER") { "after" } else { "before" });
            let dirty = dir.path(&format!("dirty-{tag}.csv"));
            let log = dir.path(&format!("log-{tag}.csv"));
            let ckpt = dir.path(&format!("ckpt-{tag}"));
            let base = [
                "pollute",
                "--schema",
                &schema,
                "--input",
                &clean,
                "--output",
                &dirty,
                "--log",
                &log,
                "--factor",
                "1.5",
                "--seed",
                "23",
                "--chunk-rows",
                "64",
                "--checkpoint",
                &ckpt,
                "--checkpoint-every",
                "1",
            ];
            let mut resume_args = base.to_vec();
            resume_args.push("--resume");
            if crash_and_resume(&base, &resume_args, (var, k)) {
                crashes += 1;
            }
            let context = format!("pollute {var}={k}");
            assert_file_eq(&ref_dirty, &dirty, &context);
            assert_file_eq(&ref_log, &log, &context);
        }
    }
    assert!(crashes >= 30, "expected ≥30 real pollute crashes, got {crashes}");
}

#[test]
fn pollute_without_a_log_resumes_byte_identical() {
    let dir = TempDir::new("pol-nolog");
    let data = dir.path("data");
    dq_ok(&["generate", "tdg", "--out", &data, "--rows", "2000", "--rules", "6", "--seed", "11"]);
    let schema = format!("{data}/schema.dqs");
    let clean = format!("{data}/clean.csv");
    let reference = dir.path("ref-dirty.csv");
    let dirty = dir.path("dirty.csv");
    let ckpt = dir.path("ckpt");
    let pollute = |output: &str| -> Vec<String> {
        ["pollute", "--schema", &schema, "--input", &clean, "--output", output]
            .into_iter()
            .chain(["--seed", "23", "--chunk-rows", "64"])
            .map(str::to_string)
            .collect()
    };
    let reference_args = pollute(&reference);
    dq_ok(&reference_args.iter().map(String::as_str).collect::<Vec<_>>());

    let victim_args = pollute(&dirty);
    let mut base: Vec<&str> = victim_args.iter().map(String::as_str).collect();
    base.extend(["--checkpoint", &ckpt, "--checkpoint-every", "1"]);
    let mut resume_args = base.clone();
    resume_args.push("--resume");
    assert!(
        crash_and_resume(&base, &resume_args, ("DQ_CRASH_AFTER_COMMITS", 7)),
        "the victim must crash mid-run"
    );
    assert_file_eq(&reference, &dirty, "pollute without --log, DQ_CRASH_AFTER_COMMITS=7");
}

#[test]
fn detect_killed_anywhere_resumes_byte_identical() {
    let dir = TempDir::new("det");
    let data = dir.path("data");
    dq_ok(&["generate", "tdg", "--out", &data, "--rows", "2000", "--rules", "6", "--seed", "11"]);
    let schema = format!("{data}/schema.dqs");
    let model = dir.path("model.dqm");
    dq_ok(&[
        "induce",
        "--schema",
        &schema,
        "--input",
        &format!("{data}/clean.csv"),
        "--model",
        &model,
    ]);
    let dirty = format!("{data}/dirty.csv");
    let ref_report = dir.path("ref-report.csv");
    let ref_corr = dir.path("ref-corr.csv");
    dq_ok(&[
        "detect",
        "--schema",
        &schema,
        "--model",
        &model,
        "--input",
        &dirty,
        "--report",
        &ref_report,
        "--corrections",
        &ref_corr,
        "--chunk-rows",
        "64",
        "--top",
        "0",
    ]);

    let mut crashes = 0;
    for (var, ks) in
        [("DQ_CRASH_AFTER_COMMITS", KILL_AFTER), ("DQ_CRASH_BEFORE_COMMIT", KILL_BEFORE)]
    {
        for &k in ks {
            let tag = format!("{}-{k}", if var.contains("AFTER") { "after" } else { "before" });
            let report = dir.path(&format!("report-{tag}.csv"));
            let corr = dir.path(&format!("corr-{tag}.csv"));
            let ckpt = dir.path(&format!("ckpt-{tag}"));
            let base = [
                "detect",
                "--schema",
                &schema,
                "--model",
                &model,
                "--input",
                &dirty,
                "--report",
                &report,
                "--corrections",
                &corr,
                "--chunk-rows",
                "64",
                "--top",
                "0",
                "--checkpoint",
                &ckpt,
                "--checkpoint-every",
                "1",
            ];
            let mut resume_args = base.to_vec();
            resume_args.push("--resume");
            if crash_and_resume(&base, &resume_args, (var, k)) {
                crashes += 1;
            }
            let context = format!("detect {var}={k}");
            assert_file_eq(&ref_report, &report, &context);
            assert_file_eq(&ref_corr, &corr, &context);
        }
    }
    assert!(crashes >= 30, "expected ≥30 real detect crashes, got {crashes}");
}

/// A job that gets killed repeatedly — crash, resume into another
/// crash, resume into a third — still converges to byte-identical
/// outputs.
#[test]
fn multi_crash_chain_converges() {
    let dir = TempDir::new("chain");
    let reference = dir.path("ref");
    dq_ok(&[
        "generate",
        "tdg",
        "--out",
        &reference,
        "--rows",
        "2000",
        "--rules",
        "6",
        "--seed",
        "11",
        "--stream-chunk-rows",
        "64",
    ]);

    let out = dir.path("out");
    let ckpt = dir.path("ckpt");
    let base = [
        "generate",
        "tdg",
        "--out",
        &out,
        "--rows",
        "2000",
        "--rules",
        "6",
        "--seed",
        "11",
        "--stream-chunk-rows",
        "64",
        "--checkpoint",
        &ckpt,
        "--checkpoint-every",
        "1",
    ];
    let mut resume_args = base.to_vec();
    resume_args.push("--resume");

    let first = dq_env(&base, &[("DQ_CRASH_AFTER_COMMITS", "3")]);
    assert!(!first.status.success(), "first incarnation should crash");
    let second = dq_env(&resume_args, &[("DQ_CRASH_AFTER_COMMITS", "7")]);
    assert!(!second.status.success(), "second incarnation should crash");
    let third = dq_env(&resume_args, &[("DQ_CRASH_BEFORE_COMMIT", "5")]);
    assert!(!third.status.success(), "third incarnation should crash");
    let last = dq(&resume_args);
    assert!(last.status.success(), "final resume failed: {}", stderr_of(&last));

    for file in GENERATE_OUTPUTS {
        assert_file_eq(
            &format!("{reference}/{file}"),
            &format!("{out}/{file}"),
            "multi-crash chain",
        );
    }
}

/// Pollute args for the edge-case tests, against a tiny generated
/// dataset; `seed` is the mutable knob the fingerprint must notice.
fn edge_pollute_args<'a>(
    schema: &'a str,
    clean: &'a str,
    dirty: &'a str,
    ckpt: &'a str,
    seed: &'a str,
) -> Vec<&'a str> {
    vec![
        "pollute",
        "--schema",
        schema,
        "--input",
        clean,
        "--output",
        dirty,
        "--seed",
        seed,
        "--chunk-rows",
        "64",
        "--checkpoint",
        ckpt,
        "--checkpoint-every",
        "1",
    ]
}

#[test]
fn resume_edge_cases_are_loud_refusals() {
    let dir = TempDir::new("edges");
    let data = dir.path("data");
    dq_ok(&["generate", "tdg", "--out", &data, "--rows", "500", "--rules", "4", "--seed", "3"]);
    let schema = format!("{data}/schema.dqs");
    let clean = format!("{data}/clean.csv");
    let dirty = dir.path("dirty.csv");
    let ckpt = dir.path("ckpt");
    let journal = format!("{ckpt}/job.dqj");

    // --resume with no journal: refused, pointing at a fresh start.
    let out = dq(&{
        let mut a = edge_pollute_args(&schema, &clean, &dirty, &ckpt, "5");
        a.push("--resume");
        a
    });
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("no journal"), "unexpected stderr: {}", stderr_of(&out));

    // Crash a run mid-way to get a live journal.
    let out = dq_env(
        &edge_pollute_args(&schema, &clean, &dirty, &ckpt, "5"),
        &[("DQ_CRASH_AFTER_COMMITS", "3")],
    );
    assert!(!out.status.success(), "victim should crash");

    // Same command again without --resume: refused, never overwritten.
    let journal_before = bytes(&journal);
    let out = dq(&edge_pollute_args(&schema, &clean, &dirty, &ckpt, "5"));
    assert!(!out.status.success());
    assert!(
        stderr_of(&out).contains("journal already exists"),
        "unexpected stderr: {}",
        stderr_of(&out)
    );
    assert_eq!(journal_before, bytes(&journal), "refusal must not touch the journal");

    // Mutated config (different --seed) on resume: typed fingerprint
    // refusal, not a silent restart.
    let out = dq(&{
        let mut a = edge_pollute_args(&schema, &clean, &dirty, &ckpt, "6");
        a.push("--resume");
        a
    });
    assert!(!out.status.success());
    assert!(
        stderr_of(&out).contains("config fingerprint mismatch"),
        "unexpected stderr: {}",
        stderr_of(&out)
    );

    // A torn journal (truncated mid-write) is refused loudly. Work on
    // a copy so the real journal stays usable.
    let torn = bytes(&journal);
    std::fs::write(&journal, &torn[..torn.len() - 3]).expect("tear journal");
    let out = dq(&{
        let mut a = edge_pollute_args(&schema, &clean, &dirty, &ckpt, "5");
        a.push("--resume");
        a
    });
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("torn or corrupt"), "unexpected stderr: {}", stderr_of(&out));
    std::fs::write(&journal, &torn).expect("restore journal");

    // Healthy journal resumes to completion…
    let out = dq(&{
        let mut a = edge_pollute_args(&schema, &clean, &dirty, &ckpt, "5");
        a.push("--resume");
        a
    });
    assert!(out.status.success(), "resume failed: {}", stderr_of(&out));

    // …and resuming a done job is a no-op success.
    let out = dq(&{
        let mut a = edge_pollute_args(&schema, &clean, &dirty, &ckpt, "5");
        a.push("--resume");
        a
    });
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("already done"),
        "unexpected stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A corrupt detect sidecar is refused as torn, never trusted and
    // never a panic: a finding record naming an attribute outside the
    // schema, or a row past the journaled cursor.
    let model = dir.path("model.dqm");
    dq_ok(&["induce", "--schema", &schema, "--input", &clean, "--model", &model]);
    let audited = format!("{data}/dirty.csv");
    let report = dir.path("report.csv");
    let detect_ckpt = dir.path("detect-ckpt");
    let detect_args = [
        "detect",
        "--schema",
        &schema,
        "--model",
        &model,
        "--input",
        &audited,
        "--report",
        &report,
        "--chunk-rows",
        "64",
        "--top",
        "0",
        "--checkpoint",
        &detect_ckpt,
        "--checkpoint-every",
        "1",
    ];
    let mut resume_args = detect_args.to_vec();
    resume_args.push("--resume");
    // 500 rows in 64-row chunks: the initial commit plus 8 batch
    // commits, so the 9th save leaves every batch committed, not done.
    let out = dq_env(&detect_args, &[("DQ_CRASH_AFTER_COMMITS", "9")]);
    assert!(!out.status.success(), "detect victim should crash");
    let sidecar = format!("{detect_ckpt}/findings.bin");
    let committed = bytes(&sidecar);
    assert!(committed.len() >= 50, "the fixture must commit at least one finding record");
    for (field, value, expected) in
        [(8..16, 255u64, "attribute 255"), (0..8, 1_000_000u64, "row 1000000")]
    {
        let mut corrupt = committed.clone();
        corrupt[field].copy_from_slice(&value.to_le_bytes());
        std::fs::write(&sidecar, &corrupt).expect("corrupt sidecar");
        let out = dq(&resume_args);
        assert_eq!(out.status.code(), Some(1), "corrupt {expected}: {}", stderr_of(&out));
        let stderr = stderr_of(&out);
        assert!(stderr.contains("torn or corrupt") && stderr.contains(expected), "got: {stderr}");
    }
    std::fs::write(&sidecar, &committed).expect("restore sidecar");
    let out = dq(&resume_args);
    assert!(out.status.success(), "resume failed: {}", stderr_of(&out));
}

/// A checkpoint written by a `dq` that still journaled one confidence
/// per scanned row: `golden/parent_checkpoint/ckpt` lists a
/// `confidence.bits` sidecar beside `findings.bin`, and its last
/// batch's bytes were flushed past the journaled watermarks before the
/// crash (`DQ_CRASH_BEFORE_COMMIT=6` on 800 rows in 64-row chunks).
/// The cursor and `findings.bin` are all a resume needs, so it resumes
/// to the report and corrections that binary wrote uninterrupted
/// (committed beside the checkpoint).
#[test]
fn parent_written_checkpoint_resumes_byte_identical() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/parent_checkpoint");
    let file = |name: &str| fixture.join(name).to_string_lossy().into_owned();
    let dir = TempDir::new("parent-ckpt");
    let ckpt = dir.path("ckpt");
    std::fs::create_dir_all(&ckpt).expect("create checkpoint copy");
    for name in ["job.dqj", "findings.bin", "confidence.bits"] {
        std::fs::copy(fixture.join("ckpt").join(name), Path::new(&ckpt).join(name))
            .expect("copy checkpoint fixture");
    }
    assert!(
        String::from_utf8(bytes(&format!("{ckpt}/job.dqj")))
            .expect("utf-8 journal")
            .contains("output confidence.bits bytes 2048\n"),
        "the fixture must be a journal that lists the per-row sidecar"
    );
    let (schema, model, input) = (file("schema.dqs"), file("model.dqm"), file("dirty.csv"));
    let (report, corr) = (dir.path("report.csv"), dir.path("corr.csv"));
    let detect = |report: &str, corr: &str, checkpoint: &[&str]| {
        let mut args = vec![
            "detect",
            "--schema",
            &schema,
            "--model",
            &model,
            "--input",
            &input,
            "--report",
            report,
            "--corrections",
            corr,
            "--chunk-rows",
            "64",
            "--top",
            "0",
        ];
        args.extend_from_slice(checkpoint);
        dq_ok(&args);
    };
    detect(&report, &corr, &["--checkpoint", &ckpt, "--checkpoint-every", "1", "--resume"]);
    assert_file_eq(&file("report.csv"), &report, "resumed parent checkpoint");
    assert_file_eq(&file("corrections.csv"), &corr, "resumed parent checkpoint");
    let journal = String::from_utf8(bytes(&format!("{ckpt}/job.dqj"))).expect("utf-8 journal");
    assert!(journal.contains("state done\n"), "{journal}");

    // An uninterrupted run of this binary writes the same bytes.
    let (fresh_report, fresh_corr) = (dir.path("fresh-report.csv"), dir.path("fresh-corr.csv"));
    detect(&fresh_report, &fresh_corr, &[]);
    assert_file_eq(&file("report.csv"), &fresh_report, "uninterrupted run");
    assert_file_eq(&file("corrections.csv"), &fresh_corr, "uninterrupted run");
}

#[test]
fn quarantine_routes_malformed_rows_and_enforces_budget() {
    let dir = TempDir::new("quar");
    let data = dir.path("data");
    dq_ok(&["generate", "tdg", "--out", &data, "--rows", "800", "--rules", "4", "--seed", "9"]);
    let schema = format!("{data}/schema.dqs");
    let model = dir.path("model.dqm");
    dq_ok(&[
        "induce",
        "--schema",
        &schema,
        "--input",
        &format!("{data}/clean.csv"),
        "--model",
        &model,
    ]);

    // Plant two malformed rows (wrong arity) into the dirty table.
    let dirty = std::fs::read_to_string(format!("{data}/dirty.csv")).expect("read dirty");
    let mut mangled = String::new();
    for (i, line) in dirty.lines().enumerate() {
        // 1-based physical lines 5 and 50 (header is line 1).
        if i + 1 == 5 || i + 1 == 50 {
            mangled.push_str("oops,not,enough\n");
        } else {
            mangled.push_str(line);
            mangled.push('\n');
        }
    }
    let bad = dir.path("bad.csv");
    std::fs::write(&bad, mangled).expect("write mangled csv");

    // Unbounded budget: the scan completes (exit 0), the dead-letter
    // file holds both rows with their 1-based lines and raw text.
    let dead = dir.path("dead.tsv");
    let out = dq_ok(&[
        "detect",
        "--schema",
        &schema,
        "--model",
        &model,
        "--input",
        &bad,
        "--chunk-rows",
        "64",
        "--top",
        "0",
        "--quarantine",
        &dead,
    ]);
    assert!(out.contains("quarantined 2 malformed row(s)"), "got: {out}");
    let dead_rows = std::fs::read_to_string(&dead).expect("read dead letters");
    let lines: Vec<&str> = dead_rows.lines().collect();
    assert_eq!(lines.len(), 2, "dead letters: {dead_rows}");
    assert!(lines[0].starts_with("5\t") && lines[0].ends_with("\toops,not,enough"));
    assert!(lines[1].starts_with("50\t") && lines[1].ends_with("\toops,not,enough"));

    // A budget of 1: the second malformed row overflows it — distinct
    // exit code 3, and the rows captured so far are still written.
    let dead1 = dir.path("dead1.tsv");
    let out = dq(&[
        "detect",
        "--schema",
        &schema,
        "--model",
        &model,
        "--input",
        &bad,
        "--chunk-rows",
        "64",
        "--top",
        "0",
        "--quarantine",
        &dead1,
        "--max-bad-rows",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("malformed rows"), "unexpected stderr: {}", stderr_of(&out));
    let dead_rows = std::fs::read_to_string(&dead1).expect("read dead letters");
    assert_eq!(dead_rows.lines().count(), 1, "dead letters: {dead_rows}");
}

/// SIGTERM mid-soak makes `dq serve` drain and exit 0 — pinned here by
/// starting a real daemon, auditing once, and killing it politely.
#[cfg(unix)]
#[test]
fn serve_drains_and_exits_cleanly_on_sigterm() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = TempDir::new("sigterm");
    let data = dir.path("data");
    dq_ok(&["generate", "tdg", "--out", &data, "--rows", "500", "--rules", "4", "--seed", "13"]);
    let models = dir.path("models");
    std::fs::create_dir_all(&models).expect("models dir");
    dq_ok(&[
        "induce",
        "--schema",
        &format!("{data}/schema.dqs"),
        "--input",
        &format!("{data}/clean.csv"),
        "--model",
        &format!("{models}/demo.dqm"),
    ]);
    std::fs::copy(format!("{data}/schema.dqs"), format!("{models}/demo.dqs")).expect("copy schema");

    let mut child = Command::new(env!("CARGO_BIN_EXE_dq"))
        .args(["serve", "--models", &models, "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dq serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));

    // First line announces the bound address: `serving 1 model(s) on
    // http://127.0.0.1:PORT`.
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr =
        banner.rsplit("http://").next().map(str::trim).expect("address in banner").to_string();

    // One real audit mid-soak, so the drain has served traffic.
    let mut sock = std::net::TcpStream::connect(&addr).expect("connect");
    sock.write_all(b"GET /health HTTP/1.1\r\nHost: dq\r\nConnection: close\r\n\r\n")
        .expect("send health check");
    let mut response = String::new();
    sock.read_to_string(&mut response).expect("read health response");
    assert!(response.starts_with("HTTP/1.1 200"), "health said: {response}");

    let killed =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("run kill");
    assert!(killed.success(), "kill -TERM failed");

    let status = child.wait().expect("wait for serve");
    assert!(status.success(), "serve exited {status:?} instead of draining to 0");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain stdout");
    assert!(rest.contains("draining"), "missing drain message: {rest}");
    assert!(rest.contains("drained; bye"), "missing drain completion: {rest}");
}
