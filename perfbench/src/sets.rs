//! Whole-benchmark modes: run every workload in fresh child processes as
//! interleaved sets, and compare two set files against the bounds of
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::metrics::{self, Better, Kind, END_TO_END, WORKLOADS};

#[derive(Debug)]
pub struct SetsArgs {
    pub sets: usize,
    /// Restrict the sets to one workload.
    pub only: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    /// `None` runs both the untraced and the traced run of every workload.
    pub trace: Option<bool>,
    pub scale_div: usize,
    /// Directory for `A.json`, `B.json`, …
    pub out: Option<String>,
}

/// Run one workload once in a fresh child process of this binary, so that
/// peak memory and every process-wide cache are per run. Returns what it
/// printed as one JSON object: `{"detail": <detail line>, "result":
/// <result line>}`.
fn run_child(args: &SetsArgs, workload: &str, traced: bool) -> Result<String, String> {
    let seed = args.seed;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--scale-div", &args.scale_div.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("the child printed nothing")?;
    let detail = lines.next().ok_or("the child printed no detail line")?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) failed: {result}",
            traced as u8
        ));
    }
    let run = format!("{{\"detail\": {detail}, \"result\": {result}}}");
    json::parse(&run)?;
    Ok(run)
}

/// The member of a workload's object that holds its untraced / traced run.
fn run_key(traced: bool) -> &'static str {
    if traced {
        "per_layer"
    } else {
        "end_to_end"
    }
}

pub fn run_sets(args: &SetsArgs) -> Result<ExitCode, String> {
    let dir = args.out.clone().unwrap_or_else(|| {
        let target = std::env::var("CARGO_TARGET_DIR")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").into());
        format!("{target}/benchmark")
    });
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.only.as_deref().is_none_or(|only| only == *name))
        .collect();
    if workloads.is_empty() {
        return Err("no such workload".into());
    }
    let modes: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    // runs[set][workload] = the runs of that workload, as object members.
    let mut runs: Vec<BTreeMap<&str, Vec<String>>> = vec![BTreeMap::new(); args.sets];
    // Interleaved at workload granularity: workload 1 for set A, workload 1
    // for set B, workload 2 for set A, … so that slow host drift lands on
    // every set alike.
    for workload in &workloads {
        for &traced in modes {
            for (set, runs) in runs.iter_mut().enumerate() {
                eprintln!(
                    "bench: set {} · {workload} · trace {}",
                    set_letter(set),
                    traced as u8
                );
                let run = run_child(args, workload, traced)?;
                runs.entry(workload)
                    .or_default()
                    .push(format!("\"{}\": {run}", run_key(traced)));
            }
        }
    }
    for (set, workloads) in runs.iter().enumerate() {
        let body: Vec<String> = workloads
            .iter()
            .map(|(name, runs)| format!("    {}: {{{}}}", json::quote(name), runs.join(", ")))
            .collect();
        let text = format!("{{\n  \"workloads\": {{\n{}\n  }}\n}}\n", body.join(",\n"));
        let path = format!("{dir}/{}.json", set_letter(set));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn set_letter(set: usize) -> char {
    (b'A' + set as u8) as char
}

// ------------------------------------------------------------ set files --

/// One set as `--sets` wrote it: per workload, the detail and result
/// lines of its untraced (`end_to_end`) and traced (`per_layer`) run.
struct SetFile {
    path: String,
    doc: Value,
}

impl SetFile {
    fn load(path: &str) -> Result<SetFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let set = SetFile {
            path: path.to_string(),
            doc,
        };
        // A scaled-down contract run is never a baseline.
        let unscaled = |stamp: &Value| stamp.get("scaled").and_then(Value::as_bool) == Some(false);
        if set.stamps().next().is_none() || !set.stamps().all(unscaled) {
            return Err(format!(
                "{path} holds a run stamped scaled (or no stamped run); not a baseline"
            ));
        }
        Ok(set)
    }

    /// The stamp of every run in the set.
    fn stamps(&self) -> impl Iterator<Item = &Value> {
        let workloads = self.doc.get("workloads").and_then(Value::as_object);
        workloads
            .into_iter()
            .flat_map(|workloads| workloads.values())
            .flat_map(|workload| [false, true].map(|traced| workload.get(run_key(traced))))
            .flatten()
            .filter_map(|run| run.get("detail")?.get("stamp"))
    }

    fn run(&self, workload: &str, traced: bool) -> Option<&Value> {
        self.doc
            .get("workloads")?
            .get(workload)?
            .get(run_key(traced))
    }

    fn value(&self, workload: &str, traced: bool, metric: &str) -> Option<f64> {
        self.run(workload, traced)?
            .get("result")?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    }

    fn digest(&self, workload: &str, traced: bool) -> Option<&str> {
        self.run(workload, traced)?
            .get("detail")?
            .get("sim_digest")?
            .as_str()
    }

    fn stamp_line(&self) -> String {
        let stamp = self.stamps().next();
        let field = |key: &str| match stamp.and_then(|s| s.get(key)) {
            Some(Value::String(s)) => s.clone(),
            Some(Value::Number(n)) => json::number(*n),
            _ => "?".to_string(),
        };
        format!(
            "{}: commit {} · {} · host_cpus {} · seed {} · {} s",
            self.path,
            field("git_commit"),
            field("rustc"),
            field("host_cpus"),
            field("seed"),
            field("seconds"),
        )
    }
}

/// The regression bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text)?;
    let listed = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    listed
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(name, bound)| (name.to_string(), bound))
                .ok_or_else(|| {
                    "BENCHMARK.json: an end_to_end entry lacks name or bound".to_string()
                })
        })
        .collect()
}

/// By what share of `a` the value `b` is worse (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare set `b` against set `a`: every end-to-end metric of every
/// workload against its bound, every exact count and digest for equality.
pub fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let (a, b) = (SetFile::load(a)?, SetFile::load(b)?);
    let bounds = bounds()?;
    println!("A  {}", a.stamp_line());
    println!("B  {}", b.stamp_line());
    let mut worse = 0;
    let mut apart = 0;
    let mut unequal = 0;
    for workload in WORKLOADS {
        if a.run(workload.name, false).is_none() && b.run(workload.name, false).is_none() {
            continue;
        }
        println!("\n{}", workload.name);
        for metric in END_TO_END {
            let bound = *bounds
                .get(metric.name)
                .ok_or_else(|| format!("BENCHMARK.json does not bound {}", metric.name))?;
            let values = (
                a.value(workload.name, false, metric.name),
                b.value(workload.name, false, metric.name),
            );
            let (Some(va), Some(vb)) = values else {
                return Err(format!(
                    "{} · {} is missing from a set",
                    workload.name, metric.name
                ));
            };
            let change = worsening(metric.better, va, vb);
            let verdict = if change > bound {
                worse += 1;
                "WORSE"
            } else if change < -bound {
                apart += 1;
                "better"
            } else {
                "ok"
            };
            println!(
                "  {:<14} {:>16.6} {:>16.6} {:<9} {:>+7.2}% of {:.0}%  {verdict}",
                metric.name,
                va,
                vb,
                metric.unit,
                change * 100.0,
                bound * 100.0
            );
        }
        for metric in metrics::PER_LAYER.iter().filter(|m| m.exact) {
            let values = (
                a.value(workload.name, true, metric.name),
                b.value(workload.name, true, metric.name),
            );
            if let (Some(va), Some(vb)) = values {
                if va != vb {
                    unequal += 1;
                    println!("  {:<36} {va} != {vb}  UNEQUAL (exact count)", metric.name);
                }
            }
        }
        for traced in [false, true] {
            let digests = (
                a.digest(workload.name, traced),
                b.digest(workload.name, traced),
            );
            if let (Some(da), Some(db)) = digests {
                if da != db {
                    unequal += 1;
                    let run = run_key(traced);
                    println!("  sim_digest ({run:<10})  {da} != {db}  UNEQUAL");
                }
            }
        }
    }
    // The two 1M replay workloads differ in worker count only: one digest.
    for set in [&a, &b] {
        let replay: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| matches!(w.kind, Kind::Stream { chaos: false, .. }))
            .filter_map(|w| set.digest(w.name, false))
            .collect();
        if replay.windows(2).any(|pair| pair[0] != pair[1]) {
            unequal += 1;
            println!(
                "\n{}: the replay workloads disagree on sim_digest  UNEQUAL",
                set.path
            );
        }
    }
    println!(
        "\n{worse} metric(s) of B worse than A beyond the bound, {apart} better beyond it, \
         {unequal} exact value(s) unequal"
    );
    Ok(if worse == 0 && unequal == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
