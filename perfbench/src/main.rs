//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <ppr_dense|traverse_mutate|service_mix|replay_paper|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a metric table, a `{"meta": ...}` line and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics, or
//! per-layer metrics with `--trace 1` (which also prints the span self-time
//! table and writes a Chrome trace to `perfbench/traces/`). Exits 1 when an
//! answer or self-check is wrong, 2 on a usage or set-up error. `all` runs
//! every workload in its own process, one after another. The simulator
//! uses one host thread per available core.

use std::path::Path;
use std::process::ExitCode;

use alpha_pim_perfbench::{run, RunOpts, Workload, DEFAULT_SEED};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match workload.as_deref() {
        Some("all") => {}
        Some(name) => {
            args.workload =
                Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?)
        }
        None => return Err("--workload is required".into()),
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&argv),
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = RunOpts {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
    };
    let result = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    for problem in &result.problems {
        eprintln!("perfbench: {}: {problem}", workload.name());
    }
    if let Some(json) = &result.trace_json {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.json", workload.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        print!("{}", result.table);
    }
    println!(
        "{:<28} {:>18} unit",
        format!("{} metric", workload.name()),
        "value"
    );
    for m in &result.metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for (name, value) in &result.model {
        println!("model {name} = {value}");
    }
    println!("{{\"meta\": {}}}", result.meta);
    println!("{}", result.json_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process (so each reports its own peak
/// RSS), forwarding their output; fails if any of them fails.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rest: Vec<&String> = argv
        .chunks(2)
        .filter(|pair| pair[0] != "--workload")
        .flatten()
        .collect();
    let mut failing = Vec::new();
    for workload in Workload::ALL {
        println!("== {}", workload.name());
        let status = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(workload.name())
            .args(&rest)
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failing.push(workload.name());
        }
    }
    if failing.is_empty() {
        println!("all workloads correct");
        ExitCode::SUCCESS
    } else {
        println!("failing workloads: {}", failing.join(", "));
        ExitCode::FAILURE
    }
}
