//! Frozen byte digests of `dq generate tdg` and `dq pollute`.
//!
//! The resume and chaos suites compare a run against another run of
//! today's binary; this suite pins the bytes across commits instead.
//! For every configuration below it records FNV-1a of each output
//! file, and checks that the default chunking and a deliberately odd
//! `--stream-chunk-rows 97` land on the same digests (9000 rows cross
//! two generator-chunk boundaries, 97 divides none of them).
//!
//! The snapshot lives in `tests/golden/generate_digests.txt`;
//! regenerate it after an *intentional* change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p dq_cli --test generate_golden
//! ```

use dq_job::fnv1a;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

const SEEDS: [u64; 2] = [11, 2003];
const ROWS: [usize; 2] = [3_000, 9_000];
const THREADS: [usize; 2] = [1, 2];
const GENERATE_OUTPUTS: [&str; 5] =
    ["schema.dqs", "clean.csv", "dirty.csv", "pollution-log.csv", "rules.txt"];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("dq-golden-{tag}-{}", std::process::id()));
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

fn dq_ok(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_dq")).args(args).output().expect("spawn dq");
    assert!(
        out.status.success(),
        "dq {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn digest(path: &str) -> String {
    let bytes = std::fs::read(Path::new(path)).unwrap_or_else(|e| panic!("read {path}: {e}"));
    format!("{:016x}", fnv1a(&bytes))
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/generate_digests.txt")
}

/// One snapshot line per generate configuration, then one per pollute
/// configuration.
fn render_snapshot(dir: &TempDir) -> String {
    let mut out = String::from(
        "# generate: seed rows threads schema clean dirty pollution-log rules (fnv1a)\n",
    );
    for seed in SEEDS {
        for rows in ROWS {
            for threads in THREADS {
                let mut digests = Vec::new();
                for chunk in [None, Some("97")] {
                    let target = dir.path(&format!("gen-{seed}-{rows}-{threads}-{chunk:?}"));
                    let (seed, rows, threads) =
                        (seed.to_string(), rows.to_string(), threads.to_string());
                    let mut args = vec![
                        "generate",
                        "tdg",
                        "--out",
                        &target,
                        "--rows",
                        &rows,
                        "--seed",
                        &seed,
                        "--threads",
                        &threads,
                    ];
                    if let Some(chunk) = chunk {
                        args.extend(["--stream-chunk-rows", chunk]);
                    }
                    dq_ok(&args);
                    let files: Vec<String> = GENERATE_OUTPUTS
                        .iter()
                        .map(|file| digest(&format!("{target}/{file}")))
                        .collect();
                    digests.push(files.join(" "));
                }
                assert_eq!(
                    digests[0], digests[1],
                    "seed {seed} rows {rows} threads {threads}: the chunk size changed the bytes"
                );
                let _ = writeln!(out, "{seed} {rows} {threads} {}", digests[0]);
            }
        }
    }

    out.push_str("# pollute --chunk-rows 64 of seed 11, 3000 rows: with-log dirty [log] (fnv1a)\n");
    let data = dir.path("gen-11-3000-1-None");
    let schema = format!("{data}/schema.dqs");
    let clean = format!("{data}/clean.csv");
    for with_log in [false, true] {
        let dirty = dir.path(&format!("pollute-{with_log}.csv"));
        let log = dir.path(&format!("pollute-{with_log}-log.csv"));
        let mut args = vec![
            "pollute",
            "--schema",
            &schema,
            "--input",
            &clean,
            "--output",
            &dirty,
            "--chunk-rows",
            "64",
        ];
        if with_log {
            args.extend(["--log", &log]);
        }
        dq_ok(&args);
        let mut line = format!("{with_log} {}", digest(&dirty));
        if with_log {
            line = format!("{line} {}", digest(&log));
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

#[test]
fn generate_and_pollute_bytes_match_the_frozen_digests() {
    let dir = TempDir::new("generate");
    let actual = render_snapshot(&dir);
    let path = golden_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden drift at line {} of {}", i + 1, path.display());
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden snapshot length changed");
}
