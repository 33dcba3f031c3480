//! Holds `BENCHMARK.json`, the metric catalogue in `src/metrics.rs` and
//! what the `bench` binary actually prints together, on populations
//! scaled down 50× so that the whole suite takes seconds in a release
//! build (`cargo test --release --manifest-path perfbench/Cargo.toml`).

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::collections::BTreeMap;
use std::process::{Command, Output};

use json::Value;

const BENCH: &str = env!("CARGO_BIN_EXE_bench");

fn bench(args: &[&str]) -> Output {
    Command::new(BENCH)
        .args(args)
        .env_remove("QUICERT_BENCH_SMOKE")
        .output()
        .expect("the bench binary runs")
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).unwrap()
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {value:?}"))
}

/// `name -> unit` of one metric family of `BENCHMARK.json`.
fn family(doc: &Value, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

fn workload_names(doc: &Value) -> Vec<String> {
    doc.get("workloads")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect()
}

/// The last two stdout lines of a run: the detail line and the result.
fn last_lines(output: &Output) -> (Value, Value) {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().expect("a result line")).expect("result is JSON");
    let detail = json::parse(lines.next().expect("a detail line")).expect("detail is JSON");
    (detail, result)
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_names_exactly_the_catalogue() {
    let doc = benchmark_json();
    let listed = bench(&["--list"]);
    assert!(listed.status.success());
    let catalogue = json::parse(String::from_utf8_lossy(&listed.stdout).trim()).unwrap();

    let workloads = workload_names(&doc);
    let catalogued: Vec<&str> = catalogue
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(workloads, catalogued);
    assert!((2..=8).contains(&workloads.len()));

    for (key, limit) in [("end_to_end", 16), ("per_layer", 128)] {
        let in_doc = doc.get(key).and_then(Value::as_array).unwrap();
        let in_binary = catalogue.get(key).and_then(Value::as_array).unwrap();
        assert!(
            (1..=limit).contains(&in_doc.len()),
            "{key} has {}",
            in_doc.len()
        );
        assert_eq!(in_doc.len(), in_binary.len(), "{key} count");
        for (documented, built) in in_doc.iter().zip(in_binary) {
            for field in ["name", "unit", "better"] {
                assert_eq!(text(documented, field), text(built, field), "{key}.{field}");
            }
            assert!(well_formed(text(documented, "name")));
            if key == "end_to_end" {
                let bound = documented.get("bound").and_then(Value::as_f64).unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "bound of {documented:?}");
            }
        }
    }
    let names: Vec<String> = workloads
        .into_iter()
        .chain(family(&doc, "end_to_end").into_keys())
        .chain(family(&doc, "per_layer").into_keys())
        .collect();
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    assert!(names.iter().all(|name| well_formed(name)));
    assert!(family(&doc, "end_to_end").contains_key("setup_s"));
}

#[test]
fn every_workload_emits_every_metric_and_fails_no_operation() {
    let doc = benchmark_json();
    for workload in workload_names(&doc) {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = bench(&[
                "--workload",
                &workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--scale-div",
                "50",
            ]);
            let context = format!("{workload} --trace {trace}");
            assert!(
                output.status.success(),
                "{context}: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let (detail, result) = last_lines(&output);
            assert_eq!(text(&detail, "workload"), workload);
            let stamp = detail.get("stamp").expect("a stamp");
            assert_eq!(stamp.get("scaled").and_then(Value::as_bool), Some(true));
            for field in [
                "host_cpus",
                "rustc",
                "git_commit",
                "seed",
                "workers_requested",
            ] {
                assert!(stamp.get(field).is_some(), "{context}: stamp lacks {field}");
            }

            let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{context}"
            );
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

            let emitted: BTreeMap<String, String> = result
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some());
                    (name.clone(), text(m, "unit").to_string())
                })
                .collect();
            assert_eq!(emitted, family(&doc, key), "{context}");
            if key == "end_to_end" {
                let metrics = result.get("metrics").unwrap();
                for name in emitted.keys() {
                    let value = metrics.get(name).unwrap().get("value").unwrap();
                    assert!(value.as_f64().unwrap() > 0.0, "{context}: {name} is 0");
                }
            }
        }
    }
}

/// Proof that the correctness check can fail: comparing every pass with
/// the result of a different seed must surface as failed operations and a
/// non-zero exit.
#[test]
fn a_harness_level_fault_fails_operations_and_the_exit_code() {
    for workload in [
        "certs_40k_survey",
        "stream_1m_replay_2w",
        "service_50k_ticks",
        "service_50k_reads",
    ] {
        let output = bench(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--scale-div",
            "50",
            "--inject-fault",
        ]);
        assert!(
            !output.status.success(),
            "{workload} exited 0 despite the fault"
        );
        let (_, result) = last_lines(&output);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
        assert!(result.get("failed").and_then(Value::as_f64).unwrap() > 0.0);
    }
}

#[test]
fn smoke_and_debug_numbers_are_refused() {
    let smoke = Command::new(BENCH)
        .args([
            "--workload",
            "certs_40k_survey",
            "--scale-div",
            "50",
            "--seconds",
            "1",
        ])
        .env("QUICERT_BENCH_SMOKE", "1")
        .output()
        .unwrap();
    assert!(!smoke.status.success());
    assert!(smoke.stdout.is_empty(), "a refused run printed a result");

    // An unscaled run of a debug build is refused before it measures
    // anything. (In a release build it would be a real ten-second run.)
    if cfg!(debug_assertions) {
        let debug = bench(&["--workload", "certs_40k_survey", "--seconds", "1"]);
        assert!(!debug.status.success());
        assert!(debug.stdout.is_empty());
    }
    assert!(!bench(&["--workload", "no_such_workload"]).status.success());
    assert!(!bench(&["--no-such-flag"]).status.success());
}

#[test]
fn scaled_sets_are_written_but_rejected_as_baselines() {
    let dir = format!("{}/scaled-sets", env!("CARGO_TARGET_TMPDIR"));
    let written = bench(&[
        "--sets",
        "2",
        "--workload",
        "certs_40k_survey",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--scale-div",
        "50",
        "--out",
        &dir,
    ]);
    assert!(
        written.status.success(),
        "{}",
        String::from_utf8_lossy(&written.stderr)
    );
    let (a, b) = (format!("{dir}/A.json"), format!("{dir}/B.json"));
    let set = json::parse(&std::fs::read_to_string(&a).unwrap()).unwrap();
    let run = set
        .get("workloads")
        .and_then(|w| w.get("certs_40k_survey"))
        .and_then(|w| w.get("end_to_end"))
        .expect("the set holds the survey's untraced run");
    let (detail, result) = (run.get("detail").unwrap(), run.get("result").unwrap());
    assert!(detail.get("sim_digest").and_then(Value::as_str).is_some());
    assert!(result
        .get("metrics")
        .and_then(|m| m.get("op_s_p25"))
        .is_some());

    let compared = bench(&["--compare", &a, &b]);
    assert!(
        !compared.status.success(),
        "a scaled set was accepted as a baseline"
    );
    assert!(String::from_utf8_lossy(&compared.stderr).contains("scaled"));
}

/// A synthetic (unscaled) set file with one workload whose metrics all
/// read `value`, except `op_s_p25` and one exact count.
fn synthetic_set(path: &str, value: f64, op_s_p25: f64, memo_misses: u64, digest: &str) {
    let doc = benchmark_json();
    let end_to_end: Vec<String> = family(&doc, "end_to_end")
        .keys()
        .map(|name| {
            let v = if name == "op_s_p25" { op_s_p25 } else { value };
            format!("\"{name}\": {{\"value\": {v}}}")
        })
        .collect();
    let run = |digest: &str, metrics: String| {
        format!(
            "{{\"detail\": {{\"stamp\": {{\"scaled\": false, \"git_commit\": \"test\"}}, \
             \"sim_digest\": \"{digest}\"}}, \"result\": {{\"metrics\": {{{metrics}}}}}}}"
        )
    };
    let text = format!(
        "{{\"workloads\": {{\"stream_1m_replay_1w\": {{\"end_to_end\": {}, \"per_layer\": {}}}}}}}",
        run(digest, end_to_end.join(", ")),
        run(
            digest,
            format!("\"scanner.memo_misses\": {{\"value\": {memo_misses}}}")
        ),
    );
    std::fs::write(path, text).unwrap();
}

#[test]
fn compare_applies_bounds_directions_and_exact_equality() {
    let dir = format!("{}/compare", env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| format!("{dir}/{name}.json");
    synthetic_set(&path("base"), 1.0, 2.0, 35, "aa");
    synthetic_set(&path("same"), 1.02, 2.02, 35, "aa");
    synthetic_set(&path("slower"), 1.0, 2.8, 35, "aa");
    synthetic_set(&path("faster"), 1.0, 1.4, 35, "aa");
    synthetic_set(&path("recount"), 1.0, 2.0, 36, "aa");
    synthetic_set(&path("redigest"), 1.0, 2.0, 35, "bb");
    let compare = |b: &str| bench(&["--compare", &path("base"), &path(b)]);

    assert!(compare("same").status.success(), "within every bound");
    let slower = compare("slower");
    assert!(!slower.status.success(), "the unit op got 40% slower");
    assert!(String::from_utf8_lossy(&slower.stdout).contains("WORSE"));
    assert!(
        compare("faster").status.success(),
        "a gain is not a regression"
    );
    assert!(!compare("recount").status.success(), "an exact count moved");
    assert!(
        !compare("redigest").status.success(),
        "the simulated output moved"
    );
}

/// The `sim_digest` is what `--compare` holds two commits to, so it must
/// not depend on how many ops fit the time box (which depends on the very
/// speed a change alters).
#[test]
fn the_digest_does_not_depend_on_the_time_box() {
    for workload in workload_names(&benchmark_json()) {
        for trace in ["0", "1"] {
            let digest = |seconds: &str| {
                // Traces go to a directory of this test's own: another test
                // runs the same workloads traced at the same time.
                let output = Command::new(BENCH)
                    .args(["--workload", &workload, "--seed", "7"])
                    .args(["--seconds", seconds, "--trace", trace])
                    .args(["--scale-div", "50"])
                    .env_remove("QUICERT_BENCH_SMOKE")
                    .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
                    .output()
                    .expect("the bench binary runs");
                let (detail, _) = last_lines(&output);
                text(&detail, "sim_digest").to_string()
            };
            assert_eq!(digest("0.2"), digest("2"), "{workload} --trace {trace}");
        }
    }
}
