//! Golden regression test for the `repro` binary's figure/table
//! numbers.
//!
//! The parallel audit engine (and every future refactor) must not
//! silently drift the paper reproduction. This suite pins the key
//! numbers two ways:
//!
//! 1. the experiment functions `repro` calls are evaluated at a small
//!    fixed scale and compared line-by-line against the snapshot in
//!    `tests/golden/repro_golden.txt` (timing measures excluded — they
//!    are the only legitimately nondeterministic outputs);
//! 2. the actual `repro` binary is executed (`--smoke fig3`) and its
//!    CSV rows are checked against the same deterministic values.
//!
//! Regenerate the snapshot after an *intentional* change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p dq_eval --test golden_repro
//! ```

use dq_eval::{ablation, classifier_comparison, fig3, fig4, fig5, quis_audit, Scale, Series};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The fixed scale behind the snapshot — small enough for CI, large
/// enough that every experiment exercises real structure.
fn golden_scale() -> Scale {
    Scale {
        rows: 800,
        rules: 10,
        record_points: vec![300, 800],
        rule_points: vec![0, 10],
        factor_points: vec![1.0, 3.0],
        comparison_rows: 500,
        quis_rows: 2500,
        replicates: 1,
        seed: 2003,
        threads: dq_exec::Parallelism::AUTO,
    }
}

fn golden_path() -> PathBuf {
    // The workspace-root snapshot directory, from this crate's manifest.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/repro_golden.txt")
}

/// `true` for measures whose values are wall-clock timings.
fn is_timing(name: &str) -> bool {
    name.ends_with("_secs")
}

/// Canonical, timing-free rendering of a sweep series.
fn render_series(s: &Series) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {}", s.title);
    for p in &s.points {
        let _ = write!(out, "{}={}", s.x_name, p.x);
        for (name, v) in &p.measures {
            if !is_timing(name) {
                let _ = write!(out, " {name}={v:.6}");
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// The full snapshot document.
fn render_snapshot(scale: &Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# golden repro numbers (timings excluded)");
    let _ = writeln!(
        out,
        "# scale: rows={} rules={} quis_rows={} seed={}",
        scale.rows, scale.rules, scale.quis_rows, scale.seed
    );
    out.push_str(&render_series(&fig3(scale).expect("fig3 runs")));
    out.push_str(&render_series(&fig4(scale).expect("fig4 runs")));
    out.push_str(&render_series(&fig5(scale).expect("fig5 runs")));
    for comparison in [
        classifier_comparison(scale).expect("comparison runs"),
        ablation(scale).expect("ablation runs"),
    ] {
        let _ = writeln!(out, "## {}", comparison.title);
        for row in &comparison.rows {
            let _ = write!(out, "{}:", row.name);
            for (name, v) in &row.measures {
                if !is_timing(name) {
                    let _ = write!(out, " {name}={v:.6}");
                }
            }
            let _ = writeln!(out);
        }
    }
    let q = quis_audit(scale).expect("quis audit runs");
    let _ = writeln!(out, "## quis audit (sec. 6.2)");
    let _ = writeln!(out, "n_rows={}", q.n_rows);
    let _ = writeln!(out, "n_suspicious={}", q.n_suspicious);
    let _ = writeln!(out, "sensitivity={:.6}", q.sensitivity);
    let _ = writeln!(out, "specificity={:.6}", q.specificity);
    let _ = writeln!(out, "top50_precision={:.6}", q.top50_precision);
    let _ = writeln!(out, "top_confidence={:.6}", q.top_confidence);
    for r in &q.top_rules {
        let _ = writeln!(out, "rule: {r}");
    }
    out
}

#[test]
fn repro_numbers_match_the_golden_snapshot() {
    let actual = render_snapshot(&golden_scale());
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

#[test]
fn repro_binary_reproduces_the_deterministic_fig3_columns() {
    // Run the real binary at smoke scale and check its CSV rows open
    // with the exact (records, sensitivity, specificity, correction)
    // values the library computes — the timing columns further right
    // are the only part allowed to vary.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--smoke", "fig3"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "repro exited with {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("repro output is UTF-8");
    assert!(stdout.contains("records,sensitivity,specificity"), "CSV header missing:\n{stdout}");
    let series = fig3(&Scale::smoke()).expect("fig3 runs");
    for p in &series.points {
        let mut prefix = format!("{}", p.x as u64);
        for (name, v) in p.measures.iter().take(3) {
            assert!(!is_timing(name));
            let _ = write!(prefix, ",{v:.4}");
        }
        assert!(
            stdout.lines().any(|l| l.starts_with(&prefix)),
            "expected a CSV row starting with `{prefix}` in repro output:\n{stdout}"
        );
    }
}

#[test]
fn repro_refuses_unknown_experiments_and_bad_thread_counts() {
    // A usage error exits 2 before any experiment runs, so a mistyped
    // name cannot pass as a successful (empty) reproduction.
    for args in [
        &["--smoke", "fig9"][..],
        &["--smoke", "--threads", "0", "fig3"],
        &["--smoke", "--threads", "two", "fig3"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(2), "repro {args:?} exited with {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("repro output is UTF-8");
        assert!(!stdout.contains("##"), "repro {args:?} ran an experiment:\n{stdout}");
    }
}
