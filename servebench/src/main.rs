//! Runs one benchmark run and prints its result.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload read-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Prints a detail line (provenance,
//! sample counts, per-stream figures) and then, as the last line, the
//! result: `{"correct", "attempted", "failed", "metrics"}`. The same
//! detail, and a traced run's spans, go to `servebench/out/`. Exits 1
//! when any response fails verification or the oracle, 2 on bad usage.

use std::process::ExitCode;

use servebench::{run, Params, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("servebench: {msg}");
    eprintln!("usage: servebench --workload <read-hot|ingest|archive> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or invalid argument");
    };
    let params = Params {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
    };
    let report = run(&params);

    let out = std::path::Path::new("servebench/out");
    let stem = format!("{}-seed{seed}-trace{}", workload.name(), u8::from(trace));
    let written = std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), &report.detail))
        .and_then(|()| {
            if trace {
                let lines = servebench::spans::to_json_lines(&report.spans);
                std::fs::write(out.join(format!("{stem}.spans.jsonl")), lines)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("servebench: could not write outputs: {e}");
    }
    for v in report.violations.iter().take(20) {
        eprintln!("VIOLATION: {v}");
    }
    println!("{}", report.detail);
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
