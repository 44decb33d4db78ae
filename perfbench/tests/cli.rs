//! The `perfbench` binary end to end: a short run of every workload prints
//! every metric named in `BENCHMARK.json` with its unit and fails no cell;
//! gated runs refuse to start under the self-profiler or `LOCKSIM_QUICK`.

use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

/// `(name, unit)` of every metric in one list (`end_to_end` or
/// `per_layer`) of the repository's `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("no {list} list"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the list closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..]
            .split('"')
            .next()
            .expect("quoted value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args)
        .env_remove("LOCKSIM_QUICK")
        .env_remove("LOCKSIM_SELF_PROFILE");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("the benchmark binary runs")
}

fn check_short_run(workload: &str, trace: &str, list: &str) {
    let spans =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("spans-{workload}-{trace}.tsv"));
    let spans = spans.to_str().expect("utf-8 temp path");
    let out = run(
        &[
            "--workload",
            workload,
            "--seconds",
            "0",
            "--trace",
            trace,
            "--spans",
            spans,
        ],
        &[],
    );
    let _ = std::fs::remove_file(spans);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
    assert!(stdout.contains("failed_frac = 0 "), "{workload}: {stdout}");
    for (name, unit) in declared(list) {
        let want = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&want)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
        let rest = &last[at + want.len()..];
        assert!(
            rest.split('}')
                .next()
                .expect("metric object")
                .ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} lacks unit {unit}"
        );
    }
}

#[test]
fn every_workload_prints_its_end_to_end_metrics() {
    for w in ["handoff-hw", "handoff-sw", "stm-apps", "chaos-check"] {
        check_short_run(w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_prints_its_per_layer_metrics() {
    for w in ["handoff-hw", "handoff-sw", "stm-apps", "chaos-check"] {
        check_short_run(w, "1", "per_layer");
    }
}

#[test]
fn gated_runs_refuse_the_self_profiler_and_quick_mode() {
    let base = ["--workload", "chaos-check", "--seconds", "0"];
    for (args, envs) in [
        (vec!["--self-profile", "p.txt"], vec![]),
        (vec![], vec![("LOCKSIM_SELF_PROFILE", "p.txt")]),
        (vec![], vec![("LOCKSIM_QUICK", "1")]),
    ] {
        let all: Vec<&str> = base.iter().copied().chain(args).collect();
        let out = run(&all, &envs);
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
        assert!(String::from_utf8_lossy(&out.stderr).contains("refusing"));
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed"],
        &["--trace", "2"],
        &[],
    ] {
        let out = run(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
