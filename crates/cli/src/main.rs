//! `dq` — the data-quality audit pipeline from a shell.
//!
//! Every layer of the workspace is reachable without writing Rust:
//!
//! ```text
//! dq generate tdg --out bench --rows 10000      # sec. 4: test data generator
//! dq pollute --schema bench/schema.dqs …        # sec. 4.2: controlled corruption
//! dq induce --schema … --model bench/model.dqm  # sec. 5: structure induction
//! dq detect --schema … --model … --input …      # sec. 5: streaming detection
//! dq serve --models DIR --addr 127.0.0.1:7700   # detection as a daemon
//! dq eval --rows 5000                           # Figure 2: the full loop, scored
//! ```
//!
//! `induce` is the train-once half (off-line, in-memory); `detect` is
//! the audit-forever half (streamed, bounded memory, byte-identical to
//! the in-memory path); `serve` keeps a directory of models resident
//! and answers the same audits over HTTP. Exit codes: 0 success,
//! 1 runtime failure, 2 usage error, 3 exhausted error budget
//! (`dq detect --max-bad-rows`).
//!
//! The streaming stages (`generate tdg`, `pollute`, `detect`) all
//! accept `--checkpoint DIR` to journal their progress at
//! chunk-commit boundaries and `--resume` to continue a killed run
//! with byte-identical outputs — see `dq_job` for the journal and
//! [`checkpoint`] for the one job driver they share.

mod args;
mod checkpoint;
mod detect;
mod eval_cmd;
mod generate;
mod induce;
mod io_util;
mod pollute_cmd;
mod serve_cmd;

use crate::args::CliError;
use crate::io_util::say;
use std::process::ExitCode;

const USAGE: &str = "dq — data mining-based data quality tools (VLDB 2003)

usage: dq <command> [flags]

commands:
  generate   write a benchmark dataset (schema, clean/dirty CSV, ground truth)
  pollute    corrupt a clean CSV with the standard suite, logging the truth
  induce     induce a structure model from a CSV and save it (train once)
  detect     stream a CSV through a saved model (audit forever)
  serve      keep a directory of models resident, audit over HTTP
  eval       run one generate -> pollute -> audit -> score cycle

command usage:
";

fn usage() -> String {
    format!(
        "{USAGE}  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n",
        generate::USAGE,
        pollute_cmd::USAGE,
        induce::USAGE,
        detect::USAGE,
        serve_cmd::USAGE,
        eval_cmd::USAGE
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "generate" => generate::run(rest),
        "pollute" => pollute_cmd::run(rest),
        "induce" => induce::run(rest),
        "detect" => detect::run(rest),
        "serve" => serve_cmd::run(rest),
        "eval" => eval_cmd::run(rest),
        "help" | "--help" | "-h" => {
            say!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command `{other}`\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("dq {command}: {error}");
            match error {
                CliError::Usage(_) => ExitCode::from(2),
                CliError::Runtime(_) => ExitCode::FAILURE,
                CliError::Budget(_) => ExitCode::from(3),
            }
        }
    }
}
