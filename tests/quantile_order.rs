//! Quantile monotonicity: every histogram summary the repo reports reads
//! all its quantiles from one estimator, so `p50 ≤ p95 ≤ p99 ≤ p999 ≤
//! p9999 ≤ max` must hold — in every `hist` row of the checked-in
//! `results/*_metrics.csv`, in every `hists` entry of the checked-in
//! `results/runs/*.json` ledger, and in snapshots built from arbitrary
//! sample sets.

use std::path::{Path, PathBuf};

use locksim::engine::catalog::Hist;
use locksim::engine::stats::Counters;
use locksim::report::read_manifests;
use locksim::trace::MetricsRegistry;
use proptest::prelude::*;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// `Err` naming the first out-of-order pair of `[p50, p95, p99, p999,
/// p9999, max]`.
fn check_order(q: [u64; 6]) -> Result<(), String> {
    const NAMES: [&str; 6] = ["p50", "p95", "p99", "p999", "p9999", "max"];
    for i in 1..q.len() {
        if q[i - 1] > q[i] {
            return Err(format!(
                "{} {} > {} {}",
                NAMES[i - 1],
                q[i - 1],
                NAMES[i],
                q[i]
            ));
        }
    }
    Ok(())
}

/// Parses a metrics-table value `count N p50 N p95 N ... max N` into the
/// six quantile fields, in report order.
fn parse_hist_value(value: &str) -> [u64; 6] {
    let words: Vec<&str> = value.split_whitespace().collect();
    let field = |name: &str| -> u64 {
        let i = words
            .iter()
            .position(|w| *w == name)
            .unwrap_or_else(|| panic!("no {name} in {value:?}"));
        words[i + 1].parse().expect("numeric field")
    };
    ["p50", "p95", "p99", "p999", "p9999", "max"].map(field)
}

#[test]
fn checked_in_metrics_csv_hist_rows_are_monotone() {
    let mut rows = 0;
    let mut bad = Vec::new();
    let mut files: Vec<PathBuf> = std::fs::read_dir(results_dir())
        .expect("read results/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.to_string_lossy().ends_with("_metrics.csv"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no results/*_metrics.csv found");
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read metrics csv");
        for line in text.lines() {
            // The value column is last and comma-free; the metric precedes it.
            let mut cols = line.rsplitn(3, ',');
            let (Some(value), Some(metric)) = (cols.next(), cols.next()) else {
                continue;
            };
            if !metric.starts_with("hist ") {
                continue;
            }
            rows += 1;
            if let Err(e) = check_order(parse_hist_value(value)) {
                bad.push(format!("{}: {line}: {e}", path.display()));
            }
        }
    }
    assert!(rows > 0, "no hist rows parsed");
    assert!(
        bad.is_empty(),
        "{} of {rows} hist rows are non-monotone:\n{}",
        bad.len(),
        bad.join("\n")
    );
}

#[test]
fn checked_in_ledger_hists_are_monotone() {
    let manifests = read_manifests(&results_dir().join("runs"));
    assert!(!manifests.is_empty(), "no results/runs/*.json manifests");
    let mut entries = 0;
    let mut bad = Vec::new();
    for (file, m) in &manifests {
        for h in &m.hists {
            entries += 1;
            if let Err(e) = check_order([h.p50, h.p95, h.p99, h.p999, h.p9999, h.max]) {
                bad.push(format!("{file}: {}: {e}", h.name));
            }
        }
    }
    assert!(entries > 0, "no hists entries parsed");
    assert!(
        bad.is_empty(),
        "{} of {entries} ledger hists are non-monotone:\n{}",
        bad.len(),
        bad.join("\n")
    );
}

proptest! {
    #[test]
    fn snapshot_hist_summaries_are_monotone(
        draws in proptest::collection::vec((0u8..3, any::<u64>()), 1..80),
    ) {
        // Mix zeros, exactly-recorded small values and log-spread large
        // ones; the 1-sample case is in range.
        let mut m = MetricsRegistry::new();
        for &(kind, v) in &draws {
            let sample = match kind {
                0 => 0,
                1 => v % 64,
                _ => v >> (v % 64),
            };
            m.observe(Hist::LockWaitCycles, sample);
        }
        let snap = m.snapshot(&Counters::new());
        let h = &snap.hists[0];
        prop_assert_eq!(h.count, draws.len() as u64);
        let order = check_order([h.p50, h.p95, h.p99, h.p999, h.p9999, h.max]);
        prop_assert!(order.is_ok(), "{:?}: {:?}", order, h);
    }
}
