//! geobench — the geoserp benchmark.
//!
//! ```text
//! cargo run --release --manifest-path geobench/Cargo.toml -- \
//!     --workload <study|serve-direct-x16> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one workload on the program's public API from the root of a
//! checkout, checks its outputs against computations made apart from the
//! program, and prints as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics with `--trace 1`). See `geobench/README.md`.

mod layers;
mod oracle;
mod serve;
mod study;
mod trace;
mod util;

use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["study", "serve-direct-x16"];

/// Where a traced run writes its span log.
const TRACE_DIR: &str = "geobench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "--workload {workload}: expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("geobench: {e}");
            eprintln!(
                "usage: geobench --workload <{}> --seed N [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        util::host_line(&args.workload, args.seed, args.seconds, args.trace)
    );
    let tracer = trace::Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "study" => study::run(args.seed, args.seconds, &tracer),
        "serve-direct-x16" => serve::run(args.seed, args.seconds, &tracer),
        _ => unreachable!("workload validated above"),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("geobench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    // The printed metrics must be exactly those BENCHMARK.json lists for
    // this mode.
    let expected: Vec<&str> = if args.trace {
        layers::per_layer_names().iter().map(|(n, _)| *n).collect()
    } else {
        layers::END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    if printed != expected {
        eprintln!(
            "geobench: {} reported metrics {printed:?}, expected {expected:?}",
            args.workload
        );
        return ExitCode::from(1);
    }
    for p in &outcome.problems {
        eprintln!("geobench: check failed: {p}");
    }
    if args.trace {
        let file = format!("{TRACE_DIR}/trace-{}-{}.json", args.workload, args.seed);
        match std::fs::create_dir_all(TRACE_DIR)
            .and_then(|_| std::fs::write(&file, tracer.chrome_trace(&args.workload)))
        {
            Ok(()) => eprintln!("geobench: span log written to {file}"),
            Err(e) => eprintln!("geobench: cannot write {file}: {e}"),
        }
    }
    for m in &outcome.metrics {
        eprintln!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", util::result_line(&outcome));
    ExitCode::SUCCESS
}
