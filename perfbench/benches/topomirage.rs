//! The benchmark's command line.
//!
//! ```text
//! cargo bench --offline --manifest-path perfbench/Cargo.toml --bench topomirage -- \
//!     --workload load-soak --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload for about `--seconds`, checks its outputs, prints
//! every metric by name with its unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics from untraced runs;
//! `--trace 1` reports the per-layer metrics from a traced run.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::workloads::{measure, Workload, END_TO_END, PER_LAYER};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: topomirage --workload <load-soak|discovery-4k|attack-campaign> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        // `cargo bench` appends `--bench` to a harness-less target's
        // arguments.
        if flag == "--bench" {
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let m = measure(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
    );
    let names = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let unit = |name: &str| {
        names
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or("", |(_, u, _)| *u)
    };
    for problem in &m.problems {
        println!("check failed: {problem}");
    }
    for (name, value) in &m.metrics {
        println!("{:<42} {:>18.6} {}", name, value, unit(name));
    }
    let metrics: Vec<String> = m
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                unit(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct,
        m.attempted,
        m.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Every digit Rust's shortest round-trip formatting gives; JSON has no
/// NaN or infinity, so those read as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
