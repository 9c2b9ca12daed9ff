//! `perfbench`: the antlayer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_corpus|large_graphs|edit_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics untraced, the per-layer metrics traced).
//! Progress and diagnostics go to standard error.

mod check;
mod gen;
mod load;
mod report;
mod trace;

use std::time::Instant;

const WORKLOADS: [&str; 3] = ["paper_corpus", "large_graphs", "edit_fleet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value != "0",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = load::Run {
        seed: args.seed,
        seconds: args.seconds,
        started,
    };
    let outcome = if args.trace {
        trace::run(&args.workload, &run)
    } else {
        match args.workload.as_str() {
            "paper_corpus" => load::paper_corpus(&run),
            "large_graphs" => load::large_graphs(&run),
            _ => load::edit_fleet(&run),
        }
    };
    for name in outcome.metrics.missing() {
        eprintln!("metric {name} has no samples");
    }
    println!(
        "{}",
        outcome
            .metrics
            .result_line(outcome.correct, outcome.attempted, outcome.failed)
    );
}
