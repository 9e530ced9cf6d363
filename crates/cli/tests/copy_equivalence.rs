//! `dq generate tdg` against the in-memory pipeline it streams.
//!
//! The streamed generate renders each clean row once and builds the
//! dirty CSV from those bytes wherever pollution left a row untouched;
//! only touched rows are rendered again. Its three data files must
//! equal what the in-memory path writes at the same seed:
//! `generate_table`, then `dq_pollute::pollute` on the same RNG walk,
//! then `write_csv`. Batches of 1 and 7 rows put every kind of row at
//! a batch edge; at `--factor 20` the duplicator deletes whole 1-row
//! batches and duplicates rows that cell polluters also touched (both
//! asserted below), and rows meet several polluters at once.

use dq_eval::Baseline;
use dq_pollute::{pollute, PollutionLog, CELLS_CSV_HEADER};
use dq_table::{write_csv, Table};
use dq_tdg::{generate_rule_set, generate_table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::Command;

const SEED: u64 = 29;
const ROWS: usize = 3_000;
const RULES: usize = 10;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("dq-copy-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn csv(table: &Table) -> String {
    let mut buf = Vec::new();
    write_csv(table, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// The clean CSV, the dirty CSV, the pollution log CSV and the log of
/// the in-memory pipeline `dq generate tdg` streams.
fn in_memory(factor: f64) -> (String, String, String, PollutionLog) {
    let env = Baseline::new(SEED).environment(RULES, ROWS, factor);
    let schema = env.generator.schema.clone();
    let mut rng = StdRng::seed_from_u64(SEED);
    let (rules, _) = generate_rule_set(&schema, &env.generator.rules, &mut rng);
    let (clean, _) = generate_table(&schema, &rules, &env.generator.data, &mut rng);
    let (dirty, log) = pollute(&clean, &env.pollution, &mut rng);
    let mut cells = CELLS_CSV_HEADER.to_string();
    log.render_cells_csv(&schema, 0, &mut cells);
    (csv(&clean), csv(&dirty), cells, log)
}

#[test]
fn streamed_generate_equals_the_in_memory_pipeline() {
    let dir = TempDir::new("generate");
    for factor in [1.0, 20.0] {
        let (clean, dirty, cells, log) = in_memory(factor);
        if factor > 1.0 {
            let touched_duplicate = log
                .provenance
                .iter()
                .enumerate()
                .any(|(r, p)| p.duplicate && log.cells.iter().any(|c| c.dirty_row == r));
            assert!(touched_duplicate, "factor {factor} must duplicate a touched row");
            assert!(!log.deleted_clean_rows.is_empty(), "factor {factor} must delete rows");
        }
        for chunk in [1usize, 7, 4096] {
            let out = dir.0.join(format!("{factor}-{chunk}"));
            let status = Command::new(env!("CARGO_BIN_EXE_dq"))
                .args(["generate", "tdg", "--out"])
                .arg(&out)
                .args(["--rows", &ROWS.to_string(), "--rules", &RULES.to_string()])
                .args(["--seed", &SEED.to_string(), "--factor", &factor.to_string()])
                .args(["--stream-chunk-rows", &chunk.to_string()])
                .output()
                .expect("spawn dq");
            assert!(status.status.success(), "{}", String::from_utf8_lossy(&status.stderr));
            let read = |name: &str| std::fs::read_to_string(out.join(name)).unwrap();
            let tag = format!("--factor {factor} --stream-chunk-rows {chunk}");
            assert!(read("clean.csv") == clean, "clean.csv differs at {tag}");
            assert!(read("dirty.csv") == dirty, "dirty.csv differs at {tag}");
            assert!(read("pollution-log.csv") == cells, "pollution-log.csv differs at {tag}");
        }
    }
}
