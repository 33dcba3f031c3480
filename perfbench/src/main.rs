//! `bench` — the repository benchmark (see `../BENCHMARK.json` and
//! `README.md` beside this package).
//!
//! ```sh
//! # One run of one workload (the form the driver uses). The last line of
//! # stdout is {"correct", "attempted", "failed", "metrics"}.
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin bench -- \
//!     --workload stream_1m_replay_1w --seed 23201 --seconds 10 --trace 0
//!
//! # Every workload, each in a fresh child process, as interleaved sets.
//! bench --sets 2 --out DIR          # writes DIR/A.json and DIR/B.json
//! bench --compare DIR/A.json DIR/B.json
//! bench --list                      # the metric and workload catalogue
//! ```

mod json;
mod metrics;
mod sets;
mod sys;
mod traced;
mod workloads;

use std::process::ExitCode;

use quicert_core::engine::host_parallelism;

use metrics::{Metric, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKERS, WORKLOADS};
use workloads::{RunArgs, RunResult};

/// Measured seconds of one run unless `--seconds` says otherwise (the
/// value `BENCHMARK.json` records as `run_seconds`).
const DEFAULT_SECONDS: f64 = 12.0;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    scale_div: Option<usize>,
    inject_fault: bool,
    sets: Option<usize>,
    out: Option<String>,
    compare: Vec<String>,
    list: bool,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let bad = |name: &str| format!("bad value for {name}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = Some(parse_seed(&value("--seed")?).ok_or_else(|| bad("--seed"))?)
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?.parse().map_err(|_| bad("--seconds"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad("--seconds"));
                }
                cli.seconds = Some(seconds);
            }
            // `--traced` is shorthand for `--trace 1`.
            "--traced" => cli.trace = Some(true),
            "--trace" => {
                cli.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                })
            }
            "--scale-div" => {
                let div: usize = value("--scale-div")?
                    .parse()
                    .map_err(|_| bad("--scale-div"))?;
                if div == 0 {
                    return Err(bad("--scale-div"));
                }
                cli.scale_div = Some(div);
            }
            "--inject-fault" => cli.inject_fault = true,
            "--list" => cli.list = true,
            "--sets" => {
                let sets: usize = value("--sets")?.parse().map_err(|_| bad("--sets"))?;
                if !(1..=26).contains(&sets) {
                    return Err(bad("--sets"));
                }
                cli.sets = Some(sets);
            }
            "--out" => cli.out = Some(value("--out")?),
            "--compare" => {
                cli.compare = vec![value("--compare")?, value("--compare")?];
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The context every output carries, so a number can never be read
/// without the host and inputs that produced it.
fn stamp_json(args: &RunArgs, traced: bool) -> String {
    let workers_requested = if traced {
        1
    } else {
        match args.workload.kind {
            metrics::Kind::Stream { workers, .. } => workers,
            _ => WORKERS,
        }
    };
    format!(
        "{{\"host_cpus\": {}, \"rustc\": {}, \"git_commit\": {}, \"seed\": {}, \
         \"seconds\": {}, \"workers_requested\": {}, \"workers_effective\": {}, \
         \"scaled\": {}, \"scale_div\": {}, \"traced\": {}}}",
        host_parallelism(),
        json::quote(sys::rustc_version()),
        json::quote(&sys::git_commit()),
        args.seed,
        json::number(args.seconds),
        workers_requested,
        workers_requested.min(host_parallelism()),
        args.scale_div > 1,
        args.scale_div,
        traced,
    )
}

/// The contract's result line: every metric of the run's family by name,
/// value and unit. A per-layer metric the run did not produce reads 0.
fn result_json(result: &RunResult, family: &[Metric]) -> String {
    let metrics: Vec<String> = family
        .iter()
        .map(|metric| {
            let value = result
                .metrics
                .iter()
                .find(|(name, _)| *name == metric.name)
                .map_or(0.0, |&(_, value)| value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(metric.name),
                json::number(value),
                json::quote(metric.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// The catalogue as JSON: what `BENCHMARK.json` must name (it adds the
/// bounds and the reasons).
fn list_json() -> String {
    let family = |metrics: &[Metric]| {
        let entries: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json::quote(m.name),
                    json::quote(m.unit),
                    json::quote(m.better.as_str())
                )
            })
            .collect();
        entries.join(", ")
    };
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| json::quote(w.name)).collect();
    format!(
        "{{\"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
        workloads.join(", "),
        family(&END_TO_END),
        family(&PER_LAYER)
    )
}

/// One run of one workload in this process.
fn run_one(cli: &Cli, name: &str) -> Result<ExitCode, String> {
    let workload = metrics::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let args = RunArgs {
        workload,
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
        scale_div: cli.scale_div.unwrap_or(1),
        inject_fault: cli.inject_fault,
    };
    // A debug build's numbers must never be recorded as a baseline; only
    // scaled-down contract runs (stamped, and rejected by --compare) may
    // run unoptimized.
    if cfg!(debug_assertions) && args.scale_div == 1 {
        return Err("refusing to measure a debug build (use --release)".into());
    }
    let traced = cli.trace.unwrap_or(false);
    let (result, family): (RunResult, &[Metric]) = if traced {
        (traced::run(&args), &PER_LAYER)
    } else {
        (workloads::run(&args), &END_TO_END)
    };
    let notes: Vec<String> = result
        .notes
        .iter()
        .map(|(name, value)| format!("{}: {}", json::quote(name), json::number(*value)))
        .collect();
    println!(
        "{{\"workload\": {}, \"stamp\": {}, \"sim_digest\": \"{:016x}\", \"notes\": {{{}}}}}",
        json::quote(workload.name),
        stamp_json(&args, traced),
        result.sim_digest,
        notes.join(", ")
    );
    println!("{}", result_json(&result, family));
    Ok(if result.failed == 0 && result.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(cli: &Cli) -> Result<ExitCode, String> {
    // A smoke configuration of the legacy benches must not leak into this
    // record: refuse instead of silently measuring something smaller.
    if std::env::var_os("QUICERT_BENCH_SMOKE").is_some() {
        return Err("QUICERT_BENCH_SMOKE is set; this benchmark has no smoke mode".into());
    }
    if cli.list {
        println!("{}", list_json());
        return Ok(ExitCode::SUCCESS);
    }
    if let [a, b] = cli.compare.as_slice() {
        return sets::compare(a, b);
    }
    match (&cli.workload, cli.sets) {
        (Some(name), None) => run_one(cli, name),
        (workload, sets) => sets::run_sets(&sets::SetsArgs {
            sets: sets.unwrap_or(1),
            only: workload.clone(),
            seed: cli.seed.unwrap_or(DEFAULT_SEED),
            seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
            trace: cli.trace,
            scale_div: cli.scale_div.unwrap_or(1),
            out: cli.out.clone(),
        }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| dispatch(&cli)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
