//! Every workload end to end at a tiny size on a second seed: the run
//! passes its own output checks, prints every metric of the catalogue
//! with a finite value, and the traced run prints its profile.

use std::process::Command;

use taxilight_obs::json::{self, Json};

fn run(workload: &str, trace: u8) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "2", "--seconds", "1", "--trace"])
        .arg(trace.to_string())
        .arg("--tiny")
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (json::parse(last).expect("result line is JSON"), stdout)
}

fn catalogue(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let list = doc.get(key).and_then(Json::as_arr).expect("metric list");
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn check(workload: &str, trace: u8) -> String {
    let (result, stdout) = run(workload, trace);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").and_then(Json::as_obj).expect("metrics object");
    let key = if trace == 1 { "per_layer" } else { "end_to_end" };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            (name.clone(), m.get("unit").and_then(Json::as_str).unwrap().to_string())
        })
        .collect();
    assert_eq!(printed, catalogue(key));
    if trace == 0 {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(value > 0.0, "{workload}: end-to-end metric {name} reads 0");
        }
    } else {
        assert!(stdout.contains("(unattributed)"), "no main-track table:\n{stdout}");
    }
    assert!(stdout.lines().any(|l| l.starts_with("info {\"workload\": ")));
    stdout
}

#[test]
fn replay_end_to_end_and_traced() {
    check("replay", 0);
    check("replay", 1);
}

#[test]
fn cityday_end_to_end_and_traced() {
    check("cityday", 0);
    check("cityday", 1);
}

#[test]
fn serve_end_to_end_and_traced() {
    check("serve", 0);
    check("serve", 1);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
