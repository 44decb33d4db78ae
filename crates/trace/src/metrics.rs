//! The metrics registry: named counters plus latency sketches with
//! p50–p99.99 summaries.
//!
//! Counters reuse [`locksim_engine::stats::Counters`] (the type every
//! backend already reports), so the registry slots into the existing
//! `report_counters()` flow; each latency metric is one
//! [`QuantileSketch`], which bounds relative quantile error and reads the
//! whole p50–p99.99 tail from one estimator, so a summary's quantiles are
//! always monotone. A [`MetricsSnapshot`] is an owned, deterministic
//! rendering of all of it — used by the harness for its metrics tables,
//! by the run-manifest ledger (which embeds the serialized sketches), and
//! by the golden determinism tests, which compare snapshots byte-for-byte.

use std::collections::BTreeMap;

use locksim_engine::stats::Counters;

use crate::sketch::QuantileSketch;

/// Central store for a run's counters and latency sketches.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Counters,
    hists: BTreeMap<&'static str, QuantileSketch>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter bundle (for reading and merging).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mutable access for components that count through the registry.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Increments counter `name`.
    pub fn incr(&mut self, name: &'static str) {
        self.counters.incr(name);
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.counters.add(name, n);
    }

    /// Records a latency sample into histogram `name`.
    pub fn observe(&mut self, name: &'static str, cycles: u64) {
        crate::prof::count("metrics/hist_samples", 1);
        self.hists.entry(name).or_default().add(cycles);
    }

    /// Histogram `name`, if any samples were recorded.
    pub fn hist(&self, name: &str) -> Option<&QuantileSketch> {
        self.hists.get(name)
    }

    /// Iterates `(name, histogram)` in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &QuantileSketch)> + '_ {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    /// Owned summary of everything recorded, merged with `extra` counter
    /// bundles (backend/directory counters reported at end of run).
    pub fn snapshot<'a>(&self, extra: impl IntoIterator<Item = &'a Counters>) -> MetricsSnapshot {
        let mut counters = self.counters.clone();
        for c in extra {
            counters.merge(c);
        }
        let hists = self
            .hists
            .iter()
            .map(|(&name, h)| {
                let t = h.tail_summary();
                HistSummary {
                    name,
                    count: h.count(),
                    p50: t.p50,
                    p95: h.quantile(0.95).unwrap_or(0),
                    p99: t.p99,
                    p999: t.p999,
                    p9999: t.p9999,
                    max: t.max,
                }
            })
            .collect();
        let sketches = self
            .hists
            .iter()
            .map(|(&name, h)| (name.to_string(), h.to_text()))
            .collect();
        MetricsSnapshot {
            counters,
            hists,
            sketches,
        }
    }
}

/// Quantile summary of one named histogram, every quantile read from its
/// sketch (≤3.1% relative error, exact below 32), so
/// `p50 ≤ p95 ≤ p99 ≤ p999 ≤ p9999 ≤ max` always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Histogram name.
    pub name: &'static str,
    /// Number of samples.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// 99.99th percentile.
    pub p9999: u64,
    /// Largest sample (exact).
    pub max: u64,
}

/// Owned, deterministic end-of-run summary: all counters (name order), all
/// histogram quantiles, and the serialized quantile sketches behind them
/// (the run-manifest ledger embeds these so dashboards can re-merge and
/// re-quantile across runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Merged counters, iterated in name order.
    pub counters: Counters,
    /// Histogram summaries, in name order.
    pub hists: Vec<HistSummary>,
    /// `(name, qsketch-v1 text)` for each histogram, in name order.
    pub sketches: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// Canonical text rendering; byte-identical across same-seed runs (the
    /// golden determinism tests compare this string).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters.iter() {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for h in &self.hists {
            out.push_str(&format!(
                "hist {} count {} p50 {} p95 {} p99 {} p999 {} p9999 {} max {}\n",
                h.name, h.count, h.p50, h.p95, h.p99, h.p999, h.p9999, h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_and_quantiles() {
        let mut m = MetricsRegistry::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            m.observe("wait", v);
        }
        let h = m.hist("wait").unwrap();
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile(0.5), Some(1));
        // 1000 lands in the sketch bucket [992, 1008).
        assert_eq!(h.quantile(0.99), Some(992));
    }

    #[test]
    fn snapshot_edge_cases() {
        let summary = |samples: &[u64]| {
            let mut m = MetricsRegistry::new();
            for &v in samples {
                m.observe("lat", v);
            }
            m.snapshot([]).hists
        };
        assert!(summary(&[]).is_empty());
        // A single sample is every quantile.
        let one = summary(&[7])[0];
        assert_eq!(
            [one.p50, one.p95, one.p99, one.p999, one.p9999, one.max],
            [7; 6]
        );
        // Zeros are recorded exactly, not rounded up to a bucket bound.
        let zeros = summary(&[0, 0])[0];
        assert_eq!((zeros.count, zeros.p95, zeros.max), (2, 0, 0));
    }

    #[test]
    fn snapshot_merges_extra_counters_and_renders_deterministically() {
        let mut m = MetricsRegistry::new();
        m.incr("a");
        m.add("b", 3);
        m.observe("lat", 16);
        let mut backend = Counters::new();
        backend.add("b", 2);
        backend.add("c", 1);
        let snap = m.snapshot([&backend]);
        assert_eq!(snap.counters.get("b"), 5);
        assert_eq!(snap.counters.get("c"), 1);
        let r = snap.render();
        assert_eq!(
            r,
            "counter a 1\ncounter b 5\ncounter c 1\n\
             hist lat count 1 p50 16 p95 16 p99 16 p999 16 p9999 16 max 16\n"
        );
        // Identical input → identical rendering.
        assert_eq!(r, m.snapshot([&backend]).render());
        // The snapshot carries the serialized sketch for the ledger.
        assert_eq!(snap.sketches.len(), 1);
        assert_eq!(snap.sketches[0].0, "lat");
        let parsed = crate::sketch::QuantileSketch::from_text(&snap.sketches[0].1).unwrap();
        assert_eq!(parsed.count(), 1);
        assert_eq!(parsed.max(), Some(16));
    }

    #[test]
    fn snapshot_tail_quantiles_use_sketch_resolution() {
        let mut m = MetricsRegistry::new();
        for v in 1..=10_000u64 {
            m.observe("lat", v);
        }
        let snap = m.snapshot([]);
        let h = &snap.hists[0];
        // A power-of-two histogram would round p50 down to 4096; the
        // sketch stays within 1/32 of the true 5000.
        assert!(h.p50 >= 4992 && h.p50 <= 5000, "p50={}", h.p50);
        assert!(h.p95 >= 9216 && h.p95 <= 9500, "p95={}", h.p95);
        assert!(h.p999 >= 9900 && h.p999 <= 9990, "p999={}", h.p999);
        assert_eq!(h.max, 10_000);
        assert!(
            h.p50 <= h.p95
                && h.p95 <= h.p99
                && h.p99 <= h.p999
                && h.p999 <= h.p9999
                && h.p9999 <= h.max
        );
    }
}
