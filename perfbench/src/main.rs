//! `perfbench` — the library side of the end-to-end benchmark.
//!
//! `run.py` drives the release `dq` binary and calls this program for
//! everything that must not be timed as part of `dq`: writing seeded
//! inputs, the library-side reference and traced runs of each stage,
//! file digests, and the serve-mix load client. Every subcommand prints
//! one JSON object on stdout.
//!
//! ```text
//! perfbench prepare --dir D --seed N [--rows N] [--sample-rows N] [--pool-rows N]
//! perfbench stage train|audit --dir D --out FILE [--trace 0|1] [--seconds S]
//! perfbench stage generate --out DIR --ckpt DIR --rows N --rules N --seed N [--trace 0|1] [--seconds S]
//! perfbench digest FILE...
//! perfbench wait-healthy --addr HOST:PORT
//! perfbench load --addr HOST:PORT --dir D --seed N --seconds S [--ladder-max R] [--trace 0|1] [--tamper 0|1]
//! ```

mod batch;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// A flat JSON object of numbers and strings, printed in key order.
#[derive(Default)]
pub struct Json(BTreeMap<String, String>);

impl Json {
    pub fn num(&mut self, key: &str, value: f64) {
        let text = if value.is_finite() { format!("{value}") } else { "null".to_string() };
        self.0.insert(key.to_string(), text);
    }

    pub fn str(&mut self, key: &str, value: &str) {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect();
        self.0.insert(key.to_string(), format!("\"{escaped}\""));
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `--key value` flags after the positional arguments.
struct Flags(BTreeMap<String, String>, Vec<String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    flags.insert(key.to_string(), value.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Flags(flags, positional))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or(format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.get(key).map(PathBuf::from)
    }
}

fn stage(flags: &Flags) -> Result<Json, String> {
    let workload = flags.1.first().ok_or("stage needs train, audit or generate")?;
    let out = flags.path("out")?;
    let trace = flags.num("trace", 0u8)? == 1;
    let seconds: f64 = flags.num("seconds", 0.0)?;
    match workload.as_str() {
        "train" => {
            let dir = flags.path("dir")?;
            batch::measure(seconds, trace, || Ok(()), |t| batch::run_train(&dir, &out, t))
        }
        "audit" => {
            let dir = flags.path("dir")?;
            batch::measure(seconds, trace, || Ok(()), |t| batch::run_audit(&dir, &out, t))
        }
        "generate" => {
            let ckpt = flags.path("ckpt")?;
            let rows: usize = flags.num("rows", 0)?;
            let rules: usize = flags.num("rules", 30)?;
            let seed: u64 = flags.num("seed", 0)?;
            let reset = || {
                for d in [&out, &ckpt] {
                    if d.exists() {
                        std::fs::remove_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
                    }
                }
                Ok(())
            };
            batch::measure(seconds, trace, reset, |t| {
                batch::run_generate(&out, &ckpt, rows, rules, seed, t)
            })
        }
        other => Err(format!("unknown stage `{other}`")),
    }
}

fn digest(flags: &Flags) -> Result<Json, String> {
    let mut out = Json::default();
    for file in &flags.1 {
        let hex = trace::digest_file(Path::new(file)).map_err(|e| format!("{file}: {e}"))?;
        out.str(file, &hex);
    }
    Ok(out)
}

fn addr(flags: &Flags) -> Result<std::net::SocketAddr, String> {
    let text = flags.get("addr")?;
    text.parse().map_err(|e| format!("--addr {text}: {e}"))
}

fn run(args: &[String]) -> Result<Json, String> {
    let (command, rest) = args.split_first().ok_or("usage: perfbench <command> [flags]")?;
    let flags = Flags::parse(rest)?;
    match command.as_str() {
        "prepare" => batch::prepare(
            &flags.path("dir")?,
            flags.num("seed", 0)?,
            flags.num("rows", 0)?,
            flags.num("sample-rows", 0)?,
            flags.num("pool-rows", 0)?,
        ),
        "stage" => stage(&flags),
        "digest" => digest(&flags),
        "wait-healthy" => {
            serve::wait_healthy(addr(&flags)?, Duration::from_secs(30))?;
            Ok(Json::default())
        }
        "load" => serve::run(&serve::Load {
            addr: addr(&flags)?,
            dir: &flags.path("dir")?,
            seed: flags.num("seed", 0)?,
            seconds: flags.num("seconds", 5.0)?,
            ladder_max: flags.num("ladder-max", 640.0)?,
            trace: flags.num("trace", 0u8)? == 1,
            tamper: flags.num("tamper", 0u8)? == 1,
        }),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => {
            println!("{}", json.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
