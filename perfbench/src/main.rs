//! The benchmark's Rust half: the `gateway-explain` workload, the child
//! process that prepares its inputs, the cold set-up probe, and the
//! calibration task that gauges the host's speed.
//! `run.py` builds this binary and calls it; see `README.md`.
//!
//! ```text
//! perfbench gateway --seed N --seconds S --trace 0|1 [--tamper verdict|suspect]
//! perfbench prepare [--tamper verdict|suspect]
//! perfbench setup-probe
//! perfbench calibrate --passes N
//! ```

mod gateway;
mod measure;

use gateway::Tamper;
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

fn tamper(args: &HashMap<String, String>) -> Result<Tamper, String> {
    match args.get("tamper").map(String::as_str) {
        None => Ok(Tamper::None),
        Some("verdict") => Ok(Tamper::Verdict),
        Some("suspect") => Ok(Tamper::Suspect),
        Some(other) => Err(format!("bad --tamper value {other:?}")),
    }
}

/// `--flag value` pairs.
fn parse(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(name.to_string(), value.clone());
    }
    Ok(map)
}

fn get<T: std::str::FromStr>(
    args: &HashMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match args.get(name) {
        Some(v) => v.parse().map_err(|_| format!("bad --{name} value {v:?}")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Ok(correct) after printing the result line.
fn run(argv: &[String]) -> Result<bool, String> {
    let (cmd, rest) = argv.split_first().ok_or("missing subcommand")?;
    let args = parse(rest)?;
    let report = match cmd.as_str() {
        "gateway" => gateway::run(
            get(&args, "seed", None)?,
            get(&args, "seconds", None)?,
            get::<u8>(&args, "trace", Some(0))? == 1,
            tamper(&args)?,
        ),
        "prepare" => {
            let mut out = std::io::BufWriter::new(std::io::stdout().lock());
            gateway::prepare(tamper(&args)?, &mut out)?;
            out.flush().map_err(|e| format!("prepare: {e}"))?;
            return Ok(true);
        }
        "calibrate" => {
            println!("{:?}", measure::calibration_ms(get(&args, "passes", None)?));
            return Ok(true);
        }
        "setup-probe" => {
            let (setup_s, train_ms) = gateway::setup_once()?;
            let train: Vec<String> = train_ms.iter().map(|v| format!("{v:?}")).collect();
            println!("{setup_s:?} {}", train.join(","));
            return Ok(true);
        }
        other => return Err(format!("unknown subcommand {other:?}")),
    };
    for e in &report.errors {
        eprintln!("perfbench: {e}");
    }
    println!("{}", report.to_json());
    Ok(report.correct)
}
