//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload gesture-wire --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits non-zero when an output check fails. Writes the full result
//! (with provenance and diagnostics) and, when traced, the spans under
//! `.bench_out/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use servebench::report::{metrics_json, Provenance, Report, END_TO_END, PER_LAYER};
use servebench::workloads::{self, zero_unmeasured_layers, Args, BenchError, Workload};

const USAGE: &str = "usage: servebench --workload <gesture-wire|forecast-online|gesture-durable|gesture-cluster> --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn run(args: &Args) -> Result<Report, BenchError> {
    fs::create_dir_all(&args.out_dir)?;
    let mut report = match args.workload {
        Workload::GestureWire => workloads::wire::run(args)?,
        Workload::ForecastOnline => workloads::forecast::run(args)?,
        Workload::GestureDurable => workloads::durable::run(args)?,
        Workload::GestureCluster => workloads::cluster::run(args)?,
    };
    if args.trace {
        zero_unmeasured_layers(&mut report);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("servebench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = Provenance::collect(args.seed);
    let report = match run(&args) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("servebench: {} failed: {error}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = match report.result_line(names) {
        Ok(line) => line,
        Err(error) => {
            eprintln!("servebench: {error}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "servebench {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("provenance {}", provenance.to_json());
    for m in report.metrics.iter().chain(&report.diagnostics) {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for mismatch in &report.mismatches {
        println!("MISMATCH {mismatch}");
    }
    let result = format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"provenance\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"diagnostics\": {}, \"mismatches\": {}, \
         \"windows\": [{}]}}\n",
        args.workload.name(),
        args.trace,
        provenance.to_json(),
        report.correct(),
        report.attempted,
        report.failed,
        metrics_json(&report.metrics),
        metrics_json(&report.diagnostics),
        report.mismatches.len(),
        report
            .windows
            .iter()
            .map(|(steal, rate)| format!("[{steal:.3}, {rate:.1}]"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let path = args.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(error) = fs::write(&path, result) {
        eprintln!("servebench: writing {}: {error}", path.display());
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
