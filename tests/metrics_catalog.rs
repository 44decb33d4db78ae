//! The metrics catalog is the only source of counter names: its names are
//! unique, and every counter the checked-in `results/` report — each
//! `counter <name>` row of `results/*_metrics.csv` and each `counters` key
//! of the `results/runs/*.json` ledger — is a catalog name. The end-of-run
//! gauges (`evq_*`, `net_link_*`, `net_queue_delay_cycles`) are catalog
//! entries too (the `Gauge` layer). A renamed catalog string therefore fails
//! here instead of silently dropping a report row.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use locksim::engine::catalog::{Ctr, Hist, TOTAL};
use locksim::report::read_manifests;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

#[test]
fn catalog_names_are_unique() {
    let names: Vec<&str> = Ctr::by_name().map(Ctr::name).collect();
    assert_eq!(names.len(), TOTAL);
    for pair in names.windows(2) {
        assert!(pair[0] != pair[1], "duplicate catalog name {}", pair[0]);
    }
    for c in Ctr::by_name() {
        assert_eq!(Ctr::from_name(c.name()), Some(c));
    }
    for h in Hist::ALL {
        assert!(
            !names.contains(&h.name()),
            "histogram {} reuses a counter name",
            h.name()
        );
    }
}

#[test]
fn checked_in_metrics_csv_counters_are_catalog_names() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(results_dir())
        .expect("read results/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.to_string_lossy().ends_with("_metrics.csv"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no results/*_metrics.csv found");
    let mut rows = 0;
    let mut unknown = BTreeSet::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read metrics csv");
        for line in text.lines() {
            // The value column is last and comma-free; the metric precedes it.
            let mut cols = line.rsplitn(3, ',');
            let (Some(_), Some(metric)) = (cols.next(), cols.next()) else {
                continue;
            };
            let Some(name) = metric.strip_prefix("counter ") else {
                continue;
            };
            rows += 1;
            if Ctr::from_name(name).is_none() {
                unknown.insert(format!("{}: {name}", path.display()));
            }
        }
    }
    assert!(rows > 0, "no counter rows parsed");
    assert!(unknown.is_empty(), "not in the catalog: {unknown:#?}");
}

#[test]
fn checked_in_ledger_counters_are_catalog_names() {
    let manifests = read_manifests(&results_dir().join("runs"));
    assert!(!manifests.is_empty(), "no results/runs/*.json manifests");
    let mut keys = 0;
    let mut unknown = BTreeSet::new();
    for (file, m) in &manifests {
        for (name, _) in &m.counters {
            keys += 1;
            if Ctr::from_name(name).is_none() {
                unknown.insert(format!("{file}: {name}"));
            }
        }
    }
    assert!(keys > 0, "no counters in the ledger");
    assert!(unknown.is_empty(), "not in the catalog: {unknown:#?}");
}
