//! The metrics registry: catalog counters plus latency sketches with
//! p50–p99.99 summaries.
//!
//! Counters are [`locksim_engine::stats::Counters`] slots indexed by
//! [`catalog`](locksim_engine::catalog) id (the same bag every backend
//! reports), so the registry slots into the existing `report_counters()`
//! flow; each [`Hist`] is one [`QuantileSketch`], which bounds relative
//! quantile error and reads the whole p50–p99.99 tail from one estimator,
//! so a summary's quantiles are always monotone. A [`MetricsSnapshot`] is
//! an owned, deterministic rendering of all of it — used by the harness for
//! its metrics tables, by the run-manifest ledger (which embeds the
//! serialized sketches), and by the golden determinism tests, which compare
//! snapshots byte-for-byte.

use locksim_engine::catalog::{Ctr, Hist};
use locksim_engine::stats::Counters;

use crate::sketch::QuantileSketch;

/// Central store for a run's counters and latency sketches.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Counters,
    hists: [QuantileSketch; Hist::ALL.len()],
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter bag.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Increments counter `c`.
    #[inline]
    pub fn incr(&mut self, c: impl Into<Ctr>) {
        self.counters.add(c, 1);
    }

    /// Records a latency sample into histogram `h`.
    pub fn observe(&mut self, h: Hist, cycles: u64) {
        crate::prof::count("metrics/hist_samples", 1);
        self.hists[h as usize].add(cycles);
    }

    /// Histogram `h`, if any samples were recorded.
    pub fn hist(&self, h: Hist) -> Option<&QuantileSketch> {
        Some(&self.hists[h as usize]).filter(|s| s.count() > 0)
    }

    /// Owned summary of everything recorded, merged with the `extra`
    /// counters (backend, directory and network counters reported at end of
    /// run). Histograms are listed in name order.
    pub fn snapshot(&self, extra: &Counters) -> MetricsSnapshot {
        let mut counters = self.counters.clone();
        counters.merge(extra);
        let mut recorded: Vec<(&'static str, &QuantileSketch)> = Hist::ALL
            .iter()
            .filter_map(|&h| self.hist(h).map(|s| (h.name(), s)))
            .collect();
        recorded.sort_unstable_by_key(|&(name, _)| name);
        let hists = recorded
            .iter()
            .map(|&(name, h)| {
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
        let sketches = recorded
            .iter()
            .map(|&(name, h)| (name.to_string(), h.to_text()))
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
    use locksim_engine::catalog::{Dir, Machine};

    const LAT: Hist = Hist::LockWaitCycles;

    #[test]
    fn observe_and_quantiles() {
        let mut m = MetricsRegistry::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            m.observe(LAT, v);
        }
        let h = m.hist(LAT).unwrap();
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
                m.observe(LAT, v);
            }
            m.snapshot(&Counters::new()).hists
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
        m.incr(Machine::LocksGranted);
        m.incr(Machine::Migrations);
        m.incr(Machine::Migrations);
        m.incr(Machine::Migrations);
        m.observe(Hist::MemOpCycles, 16);
        m.observe(LAT, 16);
        let mut backend = Counters::new();
        backend.add(Machine::Migrations, 2);
        backend.add(Dir::Gets, 1);
        let snap = m.snapshot(&backend);
        assert_eq!(snap.counters.get("migrations"), 5);
        assert_eq!(snap.counters.get("dir_gets"), 1);
        let r = snap.render();
        assert_eq!(
            r,
            "counter dir_gets 1\ncounter locks_granted 1\ncounter migrations 5\n\
             hist lock_wait_cycles count 1 p50 16 p95 16 p99 16 p999 16 p9999 16 max 16\n\
             hist mem_op_cycles count 1 p50 16 p95 16 p99 16 p999 16 p9999 16 max 16\n"
        );
        // Identical input → identical rendering.
        assert_eq!(r, m.snapshot(&backend).render());
        // The snapshot carries the serialized sketches for the ledger.
        assert_eq!(snap.sketches.len(), 2);
        assert_eq!(snap.sketches[0].0, "lock_wait_cycles");
        let parsed = crate::sketch::QuantileSketch::from_text(&snap.sketches[0].1).unwrap();
        assert_eq!(parsed.count(), 1);
        assert_eq!(parsed.max(), Some(16));
    }

    #[test]
    fn snapshot_tail_quantiles_use_sketch_resolution() {
        let mut m = MetricsRegistry::new();
        for v in 1..=10_000u64 {
            m.observe(LAT, v);
        }
        let snap = m.snapshot(&Counters::new());
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
