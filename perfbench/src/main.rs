//! The repository benchmark. Runs one named workload from a seed, checks
//! its outputs, and prints each metric with its unit and clock, then one
//! JSON result line:
//!
//! ```text
//! tlpgnn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around the benchmark's calls into the program and
//! prints the per-layer metrics instead. The run exits non-zero on any
//! unflagged wrong answer, or when the load generator fell behind its
//! schedule. See `NOTES.md` for the workloads and metric definitions.

mod common;
mod offline;
mod serve;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "offline-gcn" => offline::run(args.seed, args.seconds, args.trace),
        "serve-hot" => serve::run(&serve::HOT, args.seed, args.seconds, args.trace),
        "serve-churn" => serve::run(&serve::CHURN, args.seed, args.seconds, args.trace),
        "serve-sharded" => serve::run(&serve::SHARDED, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
