//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <sweep-lanes|sweep-scalar|service-mixed>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and the metrics. Exits 1
//! when an output was wrong and 2 when the run could not measure.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::sweeps::DEFAULT_SEED;
use perfbench::{run, Options, Scale, Workload};

/// Where traced runs write their spans and report, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: Workload::Service,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        out_dir: Some(PathBuf::from(OUT_DIR)),
    };
    let mut workload = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => options.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    match outcome.result_line() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
