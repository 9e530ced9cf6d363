//! `repro` — regenerate every figure and table of the paper's
//! evaluation (sec. 6).
//!
//! ```text
//! repro [--smoke] [--large] [--threads N] [fig3] [fig4] [fig5] [compare] [ablation] [quis] [all]
//! ```
//!
//! With no experiment argument, `all` is assumed. `--smoke` runs the
//! reduced test scale instead of the paper scale (10k records, 100
//! rules, 200k-row QUIS table). `--large` runs the million-row tier
//! (10⁵–10⁶-row sweeps, two orders above the paper); `--large --smoke`
//! caps that tier at one 10⁵-row point per sweep for CI wall-clock
//! budgets. `--threads N` fixes the sweep worker count (`--threads 1`
//! is the exact legacy serial order); the default uses every hardware
//! thread. The figure/table numbers are identical at every thread
//! count — see `tests/golden/`. An unknown experiment name, or a
//! `--threads` value that is not a positive integer, is a usage error:
//! `repro` exits 2 before running anything.

use dq_eval::{ablation, classifier_comparison, fig3, fig4, fig5, quis_audit, Scale, Series};

/// Every experiment `repro` knows, in the order `all` runs them.
const EXPERIMENTS: [&str; 6] = ["fig3", "fig4", "fig5", "compare", "ablation", "quis"];

/// Report a usage error and exit 2 before anything runs.
fn usage_error(message: &str) -> ! {
    eprintln!("repro: {message}");
    eprintln!(
        "usage: repro [--smoke] [--large] [--threads N] [fig3|fig4|fig5|compare|ablation|quis|all]..."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut smoke, mut large) = (false, false);
    let mut threads: Option<usize> = None;
    let mut wanted: Vec<&str> = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--smoke" => smoke = true,
            "--large" => large = true,
            "--threads" => {
                let value = args.next();
                match value.and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => threads = Some(n),
                    _ => {
                        usage_error(&format!("--threads needs a positive integer (got {value:?})"))
                    }
                }
            }
            name if name == "all" || EXPERIMENTS.contains(&name) => wanted.push(name),
            other => usage_error(&format!(
                "unknown experiment `{other}` (try fig3|fig4|fig5|compare|ablation|quis|all)"
            )),
        }
    }
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = EXPERIMENTS.to_vec();
    }
    let mut scale = match (large, smoke) {
        (true, true) => Scale::large_smoke(),
        (true, false) => Scale::large(),
        (false, true) => Scale::smoke(),
        (false, false) => Scale::paper(),
    };
    if let Some(n) = threads {
        scale.threads = n.into();
    }
    println!(
        "# repro — Systematic Development of Data Mining-Based Data Quality Tools (VLDB 2003)"
    );
    println!(
        "# scale: {} records, {} rules, QUIS {} rows, {} replicate(s), seed {}, {} sweep thread(s)\n",
        scale.rows,
        scale.rules,
        scale.quis_rows,
        scale.replicates,
        scale.seed,
        scale.threads.resolve()
    );
    for experiment in wanted {
        match experiment {
            "fig3" => print_series(
                &fig3(&scale).expect("fig3 runs"),
                "sensitivity",
                "Figure 3 — influence of the number of records on sensitivity",
            ),
            "fig4" => print_series(
                &fig4(&scale).expect("fig4 runs"),
                "sensitivity",
                "Figure 4 — influence of the number of rules on sensitivity",
            ),
            "fig5" => print_series(
                &fig5(&scale).expect("fig5 runs"),
                "sensitivity",
                "Figure 5 — influence of the pollution factor on sensitivity",
            ),
            "compare" => {
                println!(
                    "## Classifier comparison (sec. 5 'we evaluated different alternatives')\n"
                );
                println!("{}", classifier_comparison(&scale).expect("comparison runs").render());
            }
            "ablation" => {
                println!("## Ablation of the sec. 5.4 adjustments\n");
                println!("{}", ablation(&scale).expect("ablation runs").render());
            }
            "quis" => print_quis(&scale),
            other => unreachable!("`{other}` was validated while parsing"),
        }
    }
}

fn print_series(series: &Series, headline: &str, title: &str) {
    println!("## {title}\n");
    println!("{}", series.to_csv());
    println!("{}", series.to_ascii(headline, 0.5, 40));
    if let Some(r) = series.correlation("sensitivity", "correction") {
        println!("correlation(sensitivity, correction) = {r:.3}\n");
    }
}

fn print_quis(scale: &Scale) {
    println!("## QUIS audit (sec. 6.2)\n");
    let s = quis_audit(scale).expect("quis audit runs");
    println!("rows audited:        {}", s.n_rows);
    println!("total wall-clock:    {:.1}s (paper: ~21 min on an Athlon 900MHz)", s.total_secs);
    println!("suspicious records:  {} (paper: ~6000 of 200k)", s.n_suspicious);
    println!(
        "sensitivity:         {:.3} (vs ground-truth log; unavailable to the paper)",
        s.sensitivity
    );
    println!("specificity:         {:.4}", s.specificity);
    println!("top-50 precision:    {:.2}", s.top50_precision);
    println!("top confidence:      {:.4} (paper's example: 0.9995)", s.top_confidence);
    println!("\nhighest-support structure rules:");
    for r in &s.top_rules {
        println!("  {r}");
    }
    println!("\ntop findings:");
    for f in &s.top_findings {
        println!("  {f}");
    }
    println!();
}
