//! End-to-end exercise of the `dq` binary: generate → pollute →
//! induce → detect → eval in a temp directory, including the
//! chunk-size/thread invariance of the streamed report and the schema
//! fingerprint guard.

use std::path::{Path, PathBuf};
use std::process::Command;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("dq-e2e-{tag}-{}", std::process::id()));
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

fn dq(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dq")).args(args).output().expect("spawn dq")
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

fn read(path: &str) -> String {
    std::fs::read_to_string(Path::new(path)).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn full_pipeline_round_trips() {
    let dir = TempDir::new("pipeline");
    let schema = dir.path("schema.dqs");
    let model = dir.path("model.dqm");

    let out = dq_ok(&[
        "generate",
        "tdg",
        "--out",
        &dir.path(""),
        "--rows",
        "1500",
        "--rules",
        "10",
        "--seed",
        "42",
    ]);
    assert!(out.contains("generated tdg benchmark"), "got: {out}");
    for file in ["schema.dqs", "clean.csv", "dirty.csv", "pollution-log.csv", "rules.txt"] {
        assert!(Path::new(&dir.path(file)).exists(), "{file} missing");
    }

    // Re-pollute the clean table at a higher factor.
    let out = dq_ok(&[
        "pollute",
        "--schema",
        &schema,
        "--input",
        &dir.path("clean.csv"),
        "--output",
        &dir.path("dirty2.csv"),
        "--log",
        &dir.path("log2.csv"),
        "--factor",
        "2.0",
        "--seed",
        "7",
    ]);
    assert!(out.contains("polluted 1500 rows"), "got: {out}");
    assert!(read(&dir.path("log2.csv")).starts_with("dirty_row,attribute,polluter,before,after"));

    // Train once…
    let out = dq_ok(&[
        "induce",
        "--schema",
        &schema,
        "--input",
        &dir.path("dirty.csv"),
        "--model",
        &model,
    ]);
    assert!(out.contains("saved to"), "got: {out}");
    assert!(read(&model).starts_with("dq-structure-model v1\n"));

    // …audit forever: the streamed report is identical across chunk
    // sizes and thread counts.
    let mut reports = Vec::new();
    for (tag, chunk, threads) in
        [("a", "1", "1"), ("b", "97", "1"), ("c", "4096", "2"), ("d", "100000", "4")]
    {
        let report = dir.path(&format!("report-{tag}.csv"));
        let corrections = dir.path(&format!("corr-{tag}.csv"));
        dq_ok(&[
            "detect",
            "--schema",
            &schema,
            "--model",
            &model,
            "--input",
            &dir.path("dirty.csv"),
            "--report",
            &report,
            "--corrections",
            &corrections,
            "--chunk-rows",
            chunk,
            "--threads",
            threads,
            "--top",
            "0",
        ]);
        reports.push((read(&report), read(&corrections)));
    }
    for (r, c) in &reports[1..] {
        assert_eq!(r, &reports[0].0, "reports must be byte-identical across chunking/threads");
        assert_eq!(c, &reports[0].1, "corrections must be byte-identical too");
    }
    assert!(reports[0].0.starts_with("row,attribute,observed,proposed,confidence,support"));

    // The scored loop runs.
    let out = dq_ok(&["eval", "--rows", "1200", "--rules", "8", "--seed", "3"]);
    assert!(out.contains("sensitivity"), "got: {out}");
}

#[test]
fn detect_refuses_the_wrong_relation() {
    let dir = TempDir::new("fingerprint");
    dq_ok(&[
        "generate",
        "tdg",
        "--out",
        &dir.path(""),
        "--rows",
        "400",
        "--rules",
        "6",
        "--seed",
        "1",
    ]);
    dq_ok(&[
        "induce",
        "--schema",
        &dir.path("schema.dqs"),
        "--input",
        &dir.path("dirty.csv"),
        "--model",
        &dir.path("model.dqm"),
    ]);
    // A QUIS schema is a different relation.
    dq_ok(&["generate", "quis", "--out", &dir.path("other"), "--rows", "300", "--seed", "1"]);
    let out = dq(&[
        "detect",
        "--schema",
        &dir.path("other/schema.dqs"),
        "--model",
        &dir.path("model.dqm"),
        "--input",
        &dir.path("other/dirty.csv"),
    ]);
    assert_eq!(out.status.code(), Some(1), "fingerprint mismatch must be a runtime failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fingerprint"), "got: {stderr}");

    // A corrupted model file is a *runtime* failure (exit 1) even when
    // the error message mentions a word like `flag` — exit codes come
    // from the typed error, not message sniffing.
    let model_text = std::fs::read_to_string(dir.path("model.dqm")).unwrap();
    let corrupted: String = model_text
        .lines()
        .filter(|l| !l.starts_with("config.flag-nulls"))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(dir.path("model-broken.dqm"), corrupted).unwrap();
    let out = dq(&[
        "detect",
        "--schema",
        &dir.path("schema.dqs"),
        "--model",
        &dir.path("model-broken.dqm"),
        "--input",
        &dir.path("dirty.csv"),
    ]);
    assert_eq!(out.status.code(), Some(1), "corrupted model must be a runtime failure");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("config.flag-nulls"),
        "got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn usage_errors_exit_2() {
    let out = dq(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = dq(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = dq(&["induce", "--nope", "x"]);
    assert_eq!(out.status.code(), Some(2));
    let out = dq(&["generate", "tdg"]); // missing --out
    assert_eq!(out.status.code(), Some(2));
    let out = dq(&["help"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn detect_flushes_the_partial_report_on_a_mid_stream_error() {
    let dir = TempDir::new("partial");
    let schema = dir.path("schema.dqs");
    let model = dir.path("model.dqm");
    dq_ok(&[
        "generate",
        "tdg",
        "--out",
        &dir.path(""),
        "--rows",
        "600",
        "--rules",
        "6",
        "--seed",
        "9",
    ]);
    dq_ok(&["induce", "--schema", &schema, "--input", &dir.path("dirty.csv"), "--model", &model]);

    // Corrupt one cell of data row 320 (physical CSV line 322: the
    // header is line 1). With --chunk-rows 64 the first five chunks
    // (rows 0..320) are complete; the failing chunk is discarded.
    let text = read(&dir.path("dirty.csv"));
    let lines: Vec<&str> = text.lines().collect();
    let bad_index = 321; // lines[0] is the header; data row 320
    let mut corrupted: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let mut cells: Vec<&str> = lines[bad_index].split(',').collect();
    cells[0] = "@@bad@@";
    corrupted[bad_index] = cells.join(",");
    std::fs::write(dir.path("corrupted.csv"), corrupted.join("\n") + "\n").unwrap();
    // The ground truth: a clean run over exactly the complete prefix.
    std::fs::write(dir.path("prefix.csv"), lines[..=320].join("\n") + "\n").unwrap();
    dq_ok(&[
        "detect",
        "--schema",
        &schema,
        "--model",
        &model,
        "--input",
        &dir.path("prefix.csv"),
        "--report",
        &dir.path("expected-report.csv"),
        "--corrections",
        &dir.path("expected-corrections.csv"),
        "--chunk-rows",
        "64",
        "--top",
        "0",
    ]);

    let out = dq(&[
        "detect",
        "--schema",
        &schema,
        "--model",
        &model,
        "--input",
        &dir.path("corrupted.csv"),
        "--report",
        &dir.path("partial-report.csv"),
        "--corrections",
        &dir.path("partial-corrections.csv"),
        "--chunk-rows",
        "64",
        "--top",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(1), "a mid-stream error is a runtime failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 322"), "stderr must carry the 1-based CSV line: {stderr}");
    assert!(stderr.contains("320 complete rows"), "got: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PARTIAL"), "the summary must mark the scan partial: {stdout}");
    assert!(stdout.contains("scanned 320 rows"), "got: {stdout}");

    // The flushed partial files equal the clean run over the prefix.
    assert_eq!(read(&dir.path("partial-report.csv")), read(&dir.path("expected-report.csv")));
    assert_eq!(
        read(&dir.path("partial-corrections.csv")),
        read(&dir.path("expected-corrections.csv"))
    );
}

#[test]
fn spill_flag_and_directory_input_are_refused() {
    let dir = TempDir::new("csv-only");
    let schema = dir.path("schema.dqs");
    let model = dir.path("model.dqm");

    // The dirty relation is written as CSV only: the flag that once
    // also wrote it as a page directory is an unknown flag now, and is
    // refused before anything is generated.
    let gen = dir.path("gen");
    let out = dq(&["generate", "tdg", "--out", &gen, "--rows", "200", "--paged-dirty", &gen]);
    assert_eq!(out.status.code(), Some(2), "a removed flag is a usage error");
    assert!(!Path::new(&gen).exists(), "a refused generate must write nothing");

    dq_ok(&["generate", "tdg", "--out", &dir.path(""), "--rows", "600", "--rules", "6"]);
    dq_ok(&["induce", "--schema", &schema, "--input", &dir.path("dirty.csv"), "--model", &model]);

    // A directory is not an input: the audit fails with a message
    // naming the path and writes no report.
    let input = dir.path("pages");
    std::fs::create_dir(&input).unwrap();
    let report = dir.path("report.csv");
    let out = dq(&[
        "detect", "--schema", &schema, "--model", &model, "--input", &input, "--report", &report,
    ]);
    assert_eq!(out.status.code(), Some(1), "a directory input is a runtime failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&input), "the refusal must name the path: {stderr}");
    assert!(!Path::new(&report).exists(), "a refused audit must write no report");
}

#[test]
fn pollute_refuses_to_overwrite_its_input() {
    let dir = TempDir::new("clobber");
    dq_ok(&["generate", "tdg", "--out", &dir.path(""), "--rows", "20000", "--seed", "5"]);
    let schema = dir.path("schema.dqs");
    let input = dir.path("clean.csv");
    let before = std::fs::read(&input).unwrap();
    // The input named directly, through another spelling of its path,
    // or as the log: each is a usage error before anything is opened.
    let other_spelling = format!("{}/./clean.csv", dir.0.display());
    for (flag, target) in [("--output", input.as_str()), ("--output", &other_spelling)] {
        let out = dq(&["pollute", "--schema", &schema, "--input", &input, flag, target]);
        assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stderr).contains("input file"));
    }
    let out = dq(&[
        "pollute",
        "--schema",
        &schema,
        "--input",
        &input,
        "--output",
        &dir.path("dirty2.csv"),
        "--log",
        &input,
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!Path::new(&dir.path("dirty2.csv")).exists(), "nothing is created on refusal");
    assert!(std::fs::read(&input).unwrap() == before, "the input must be unchanged");
}

#[test]
fn remote_detect_rejects_local_audit_flags() {
    // --server hands the scan to the daemon's resident model; mixing
    // in local-model flags is a usage error, caught before any I/O.
    let out = dq(&[
        "detect",
        "--server",
        "127.0.0.1:1",
        "--model-name",
        "x",
        "--input",
        "nope.csv",
        "--model",
        "m.dqm",
    ]);
    assert_eq!(out.status.code(), Some(2), "got: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--model is a local-audit flag"), "got: {stderr}");
}
