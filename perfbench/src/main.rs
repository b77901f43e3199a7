//! One pass of one benchmark workload, in a process of its own.
//!
//! ```text
//! sudc-perfbench --workload figures|ops-loop --seed N
//!                [--threads N] [--part pass|setup|accel] [--spans FILE] [--run-id ID]
//! ```
//!
//! The process builds the workload's inputs, runs exactly one pass
//! through the workspace crates' public APIs, and prints one JSON line:
//! set-up and pass host times, peak memory, per-layer metrics, the
//! deterministic outputs the expected-output manifest is compared with,
//! and the correctness checks and mechanism guards. `--part setup` stops
//! after set-up; `--part accel` runs the traced accelerator sweep of the
//! `figures` workload instead of a pass. With `--spans FILE` every timed
//! call is kept as a span, written to FILE at exit, and summarised as
//! per-layer self times. `perfbench/run.py` drives this binary; see
//! `perfbench/README.md`.

mod figures;
mod ops;
mod pass;
mod spans;

use std::process::ExitCode;
use std::time::Instant;

use sudc_par::json::Json;

use pass::PassOutput;
use spans::Tracer;

/// The workloads, by the names `BENCHMARK.json` gives them.
const WORKLOADS: [&str; 2] = ["figures", "ops-loop"];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    threads: Option<usize>,
    part: String,
    spans: Option<String>,
    run_id: String,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        threads: None,
        part: "pass".to_string(),
        spans: None,
        run_id: "run".to_string(),
    };
    let mut seed = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed must be a whole number, got {value:?}"))?,
                );
            }
            "--threads" => match value.parse::<usize>() {
                Ok(n) if n > 0 => args.threads = Some(n),
                _ => {
                    return Err(format!(
                        "--threads must be a positive integer, got {value:?}"
                    ))
                }
            },
            "--part" => args.part = value,
            "--spans" => args.spans = Some(value),
            "--run-id" => args.run_id = value,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !["pass", "setup", "accel"].contains(&args.part.as_str())
        || (args.part == "accel" && args.workload != "figures")
    {
        return Err(format!(
            "--part must be pass, setup, or (figures only) accel, got {:?}",
            args.part
        ));
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

/// A workload's inputs, built during set-up (once per process, so the
/// variants' sizes do not matter).
#[allow(clippy::large_enum_variant)]
enum Inputs {
    Figures(figures::Inputs),
    Ops(ops::Inputs),
    /// The accelerator part takes no inputs.
    Accel,
}

fn setup(args: &Args) -> Inputs {
    match args.workload.as_str() {
        "figures" if args.part == "accel" => Inputs::Accel,
        "figures" => Inputs::Figures(figures::setup()),
        _ => Inputs::Ops(ops::setup(args.seed)),
    }
}

fn pass(inputs: &Inputs, tracer: &Tracer) -> PassOutput {
    match inputs {
        Inputs::Figures(i) => figures::pass(i, tracer),
        Inputs::Ops(i) => ops::pass(i, tracer),
        Inputs::Accel => figures::accel_part(tracer),
    }
}

fn object(entries: impl IntoIterator<Item = (String, Json)>) -> Json {
    Json::Obj(entries.into_iter().collect())
}

fn main() -> ExitCode {
    let start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sudc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Set-up is timed from the start of `main`; the thread count is
    // resolved after it, since reading the CPU quota is not the workload's.
    let inputs = setup(&args);
    let setup_s = start.elapsed().as_secs_f64();
    let threads = args.threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    sudc_par::set_threads(threads);

    let tracer = Tracer::new(args.spans.is_some(), &args.run_id);
    let output = (args.part != "setup").then(|| pass(&inputs, &tracer));
    let mut line = Json::object()
        .with("workload", args.workload.as_str())
        .with("part", args.part.as_str())
        .with("seed", args.seed as f64)
        .with("threads", threads)
        .with("setup_s", setup_s);
    if let Some(out) = output {
        let mut metrics = out.metrics;
        let (spans, run_id) = tracer.finish();
        if let Some(path) = &args.spans {
            for (layer, secs) in spans::self_times(&spans) {
                metrics.push((format!("{layer}.self_s"), secs));
            }
            metrics.push(("trace.spans".to_string(), spans.len() as f64));
            let doc = spans::to_json(&spans, &run_id).to_string_compact() + "\n";
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("sudc-perfbench: cannot write spans to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        let flags =
            |v: Vec<(String, bool)>| object(v.into_iter().map(|(k, ok)| (k, Json::Bool(ok))));
        line = line
            .with("wall_s", out.wall_s)
            .with("peak_rss_mib", pass::peak_rss_mib())
            .with(
                "metrics",
                object(metrics.into_iter().map(|(k, v)| (k, Json::Num(v)))),
            )
            .with("observed", object(out.observed))
            .with("checks", flags(out.checks))
            .with("guards", flags(out.guards));
    }
    println!("{}", line.to_string_compact());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "ops-loop",
            "--seed",
            "7",
            "--threads",
            "1",
            "--spans",
            "s.json",
        ]))
        .unwrap();
        assert_eq!(a.workload, "ops-loop");
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, Some(1));
        assert_eq!(a.part, "pass");
        assert_eq!(a.spans.as_deref(), Some("s.json"));
    }

    #[test]
    fn rejects_bad_arguments_with_a_message() {
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "figures"],
            &["--workload", "figures", "--seed", "x"],
            &["--workload", "figures", "--seed", "1", "--threads", "0"],
            &["--workload", "ops-loop", "--seed", "1", "--part", "accel"],
            &["--workload", "figures", "--seed"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
