//! Cross-run experiment ledger and dashboard builder for locksim.
//!
//! Three pieces:
//! - [`json`]: the workspace's shared hand-rolled JSON reader (no serde
//!   anywhere in the tree).
//! - [`manifest`]: the `locksim-run-v1` schema — one JSON file per
//!   measured run, all fields simulation-derived so identical runs are
//!   byte-identical.
//! - [`dashboard`]: folds a directory of manifests plus the checked-in
//!   `BENCH_*.json` trajectory into one self-contained HTML page
//!   (tail-latency tables, per-window time-series charts, verdict matrix,
//!   bench trend lines).
//!
//! The `report` bin (root package shim) drives it:
//! `report [--runs results/runs] [--out results/dashboard.html]
//! [--bench-dir .]`.

#![forbid(unsafe_code)]

pub mod dashboard;
pub mod json;
pub mod manifest;

pub use dashboard::{parse_bench, render_dashboard, BenchPoint};
pub use manifest::{
    read_manifests, write_manifest, HistRow, RunManifest, SeriesOut, SeriesRow, Verdict,
};

use std::path::{Path, PathBuf};

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: report [--runs <dir>] [--out <path>] [--bench-dir <dir>]\n\
         \n\
         Aggregates locksim-run-v1 manifests (default results/runs/) and any\n\
         BENCH_*.json baselines (default: current directory) into one\n\
         self-contained HTML dashboard (default results/dashboard.html)."
    );
    std::process::exit(2);
}

/// Discovers `BENCH_*.json` files directly in `dir`, sorted by file name
/// (the `NNNN` zero-padding makes that chronological).
pub fn discover_benches(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name().is_some_and(|n| {
                        let n = n.to_string_lossy();
                        n.starts_with("BENCH_") && n.ends_with(".json")
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    found.sort();
    found
}

/// Builds the dashboard from a ledger directory and a baseline directory;
/// returns the HTML.
pub fn build_dashboard(runs_dir: &Path, bench_dir: &Path) -> String {
    let manifests = read_manifests(runs_dir);
    let mut benches = Vec::new();
    for p in discover_benches(bench_dir) {
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        match std::fs::read_to_string(&p).map_err(|e| e.to_string()) {
            Ok(text) => match parse_bench(&name, &text) {
                Ok(b) => benches.push(b),
                Err(e) => eprintln!("report: skipping {}: {e}", p.display()),
            },
            Err(e) => eprintln!("report: skipping {}: {e}", p.display()),
        }
    }
    render_dashboard(&manifests, &benches)
}

/// Entry point of the `report` bin (shared by the root-package shim).
pub fn cli_main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut runs = PathBuf::from("results/runs");
    let mut out = PathBuf::from("results/dashboard.html");
    let mut bench_dir = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> PathBuf {
            it.next()
                .map(PathBuf::from)
                .unwrap_or_else(|| usage_exit(&format!("{name} requires a value")))
        };
        match a.as_str() {
            "--runs" => runs = take("--runs"),
            "--out" => out = take("--out"),
            "--bench-dir" => bench_dir = take("--bench-dir"),
            other => usage_exit(&format!("unknown argument {other:?}")),
        }
    }
    let html = build_dashboard(&runs, &bench_dir);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create dashboard output dir");
    }
    std::fs::write(&out, &html)
        .unwrap_or_else(|e| panic!("write dashboard {}: {e}", out.display()));
    eprintln!(
        "report: wrote {} ({} bytes) from {} and {}",
        out.display(),
        html.len(),
        runs.display(),
        bench_dir.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discover_benches_sorts_and_filters() {
        let dir = std::env::temp_dir().join(format!("locksim-report-disc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for n in [
            "BENCH_0002.json",
            "BENCH_0001.json",
            "other.json",
            "BENCH_x.txt",
        ] {
            std::fs::write(dir.join(n), "{}").unwrap();
        }
        let got: Vec<String> = discover_benches(&dir)
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(got, vec!["BENCH_0001.json", "BENCH_0002.json"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_dashboard_handles_missing_dirs() {
        let html = build_dashboard(Path::new("/nonexistent/a"), Path::new("/nonexistent/b"));
        assert!(html.contains("dashboard"));
    }
}
