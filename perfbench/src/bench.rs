//! Runs a workload's cells in passes and turns them into metrics.
//!
//! A run is one untimed warm-up pass, then measured passes until the
//! requested seconds have elapsed (and at least [`MIN_CELL_SAMPLES`] cell
//! timings exist, so `cell_ms.p90` has ten samples beyond it). Every pass
//! runs the same cells with the same seeds on one thread. Host figures are
//! reported as medians over passes; simulated counts repeat exactly from
//! pass to pass, and any pass that disagrees with the first fails its
//! cells.
//!
//! The untraced run (`--trace 0`) gives the end-to-end metrics. The
//! traced run (`--trace 1`) alternates an untraced and a traced pass: the
//! traced passes record spans around each layer's entry points and give
//! the per-layer metrics; the untraced ones give the tracing overhead and
//! must produce the same fingerprints as the traced ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use locksim_trace::{alloc, QuantileSketch};

use crate::calib;
use crate::cells::{cells, run_cell, Cell, CellRun, Workload};
use crate::fingerprint::{compare, Fingerprint, Recorded, DEFAULT_SEED};
use crate::spans::{self, Span};

/// Minimum measured cell timings per run (ten beyond the 90th percentile).
pub const MIN_CELL_SAMPLES: usize = 100;

/// A metric as printed: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`wall_s`, `engine.events`, ...).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `count`, ...).
    pub unit: &'static str,
}

/// Cell time between two calibration-kernel samples (checked between
/// cells).
const KERNEL_EVERY: Duration = Duration::from_millis(50);

/// One pass over a workload's cells.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host nanoseconds for the whole pass, calibration kernels excluded.
    pub wall_ns: u64,
    /// Each cell's factor from host time to reference-host time: the
    /// reference kernel time over the mean of the kernel samples around
    /// the cell's stretch of the pass (see `calib`).
    pub cell_scale: Vec<f64>,
    /// Each cell's peak live heap above the live heap it started with.
    pub cell_heap: Vec<u64>,
    /// Per-cell results (`None` for a cell that panicked).
    pub runs: Vec<Option<CellRun>>,
    /// Failure messages, one per failed cell.
    pub failures: Vec<String>,
    /// Whether each cell failed a check (at most one message per cell).
    pub failed: Vec<bool>,
    /// Spans recorded during the pass (traced passes only).
    pub spans: Vec<Span>,
}

impl Pass {
    /// The pass's median factor from host to reference-host time.
    pub fn scale(&self) -> f64 {
        median(&self.cell_scale)
    }

    /// Sum of a per-cell host time (nanoseconds) over the pass, each cell
    /// scaled to the reference host, in seconds.
    pub fn scaled_s(&self, f: impl Fn(&CellRun) -> u64) -> f64 {
        self.runs
            .iter()
            .zip(&self.cell_scale)
            .filter_map(|(r, k)| r.as_ref().map(|r| f(r) as f64 * k))
            .sum::<f64>()
            / 1e9
    }

    /// Simulated megacycles per reference-host run-loop second.
    pub fn scaled_mcycles_per_s(&self) -> f64 {
        let cycles = self.sum(|r| r.fp.end_cycle) as f64;
        let run_s = self.scaled_s(|r| r.run_ns);
        if run_s > 0.0 {
            cycles / 1e6 / run_s
        } else {
            0.0
        }
    }

    fn sum(&self, f: impl Fn(&CellRun) -> u64) -> u64 {
        self.runs.iter().flatten().map(f).sum()
    }

    /// Sum of one snapshot counter over the pass's cells.
    pub fn counter(&self, name: &str) -> u64 {
        self.sum(|r| r.snap.counters.get(name))
    }

    /// Total set-up seconds of the pass.
    pub fn setup_s(&self) -> f64 {
        self.sum(|r| r.setup_ns) as f64 / 1e9
    }

    /// Simulated megacycles per host run-loop second.
    pub fn sim_mcycles_per_s(&self) -> f64 {
        let cycles = self.sum(|r| r.fp.end_cycle) as f64;
        let run_s = self.sum(|r| r.run_ns) as f64 / 1e9;
        if run_s > 0.0 {
            cycles / 1e6 / run_s
        } else {
            0.0
        }
    }

    /// The cells' fingerprints, in cell order.
    pub fn fingerprints(&self) -> Vec<Option<Fingerprint>> {
        self.runs
            .iter()
            .map(|r| r.as_ref().map(|r| r.fp.clone()))
            .collect()
    }

    fn span_busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    fn span_calls(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls)
            .sum()
    }

    /// Self time of the run-loop spans: run minus hooks minus resumes.
    fn run_self_s(&self) -> f64 {
        let selfs = spans::self_ns(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == "machine/run" || s.name == "faults/drive")
            .map(|(_, own)| own)
            .sum::<u64>() as f64
            / 1e9
    }
}

/// Runs every cell once. `recorded` is the table to check fingerprints
/// against (the default seed only).
pub fn run_pass(
    workload: Workload,
    cells: &[Cell],
    traced: bool,
    recorded: Option<&Recorded>,
) -> Pass {
    if traced {
        spans::enable();
    }
    let mut pass = Pass::default();
    let t0 = Instant::now();
    let mut kernels = vec![calib::kernel_ns()];
    let mut segment = Vec::with_capacity(cells.len());
    let mut since = Instant::now();
    for (i, cell) in cells.iter().enumerate() {
        if since.elapsed() >= KERNEL_EVERY {
            kernels.push(calib::kernel_ns());
            since = Instant::now();
        }
        segment.push(kernels.len() - 1);
        spans::set_cell(i as u32);
        let live = alloc::snapshot().current_bytes;
        alloc::reset_peak();
        let out = catch_unwind(AssertUnwindSafe(|| {
            let _s = spans::span("cell");
            run_cell(cell, traced)
        }));
        pass.cell_heap
            .push(alloc::snapshot().peak_bytes.saturating_sub(live));
        let failure = match &out {
            Err(_) => Some(format!("{}: panicked", cell.label)),
            Ok(run) => match (&run.problem, recorded) {
                (Some(p), _) => Some(format!("{}: {p}", cell.label)),
                (None, Some(table)) => {
                    compare(&run.fp, table.get(workload.name(), &cell.label)).err()
                }
                (None, None) => None,
            },
        };
        pass.failed.push(failure.is_some());
        pass.failures.extend(failure);
        pass.runs.push(out.ok());
    }
    kernels.push(calib::kernel_ns());
    let elapsed = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    pass.wall_ns = elapsed.saturating_sub(kernels.iter().sum());
    // A cell between samples `seg` and `seg + 1` is scaled by the mean of
    // the four samples around it: host-speed phases last seconds, so the
    // wider window mostly averages out the kernel's own noise.
    pass.cell_scale = segment
        .iter()
        .map(|&seg| {
            let window = &kernels[seg.saturating_sub(1)..(seg + 3).min(kernels.len())];
            let mean = window.iter().sum::<u64>() as f64 / window.len() as f64;
            calib::REF_KERNEL_NS / mean.max(1.0)
        })
        .collect();
    if traced {
        pass.spans = spans::take();
    }
    pass
}

/// Fails every cell of `pass` whose fingerprint differs from `reference`
/// (a cell that already failed is not counted twice).
fn check_same(pass: &mut Pass, reference: &[Option<Fingerprint>], cells: &[Cell], what: &str) {
    for (i, (got, want)) in pass.fingerprints().iter().zip(reference).enumerate() {
        if let (Some(got), Some(want)) = (got, want) {
            if got != want && !pass.failed[i] {
                let msg = compare(got, Some(want)).unwrap_err();
                pass.failures
                    .push(format!("{} ({what}): {msg}", cells[i].label));
                pass.failed[i] = true;
            }
        }
    }
}

/// What a whole run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Cell runs attempted (every pass, warm-up included).
    pub attempted: u64,
    /// Cell runs that failed a check.
    pub failed: u64,
    /// The failure messages.
    pub failures: Vec<String>,
    /// The metrics to print, in order.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
    /// Spans of the traced passes, in pass order.
    pub spans: Vec<Span>,
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time after the warm-up pass.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
}

/// Runs a workload and computes its metrics.
pub fn run(opts: &Options) -> RunOutput {
    let cells = cells(opts.workload, opts.seed);
    let table = Recorded::builtin();
    let recorded = (opts.seed == DEFAULT_SEED).then_some(&table);
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut account = |pass: &Pass, failures: &mut Vec<String>| {
        attempted += pass.runs.len() as u64;
        failures.extend(pass.failures.iter().cloned());
    };

    let warm = run_pass(opts.workload, &cells, false, recorded);
    account(&warm, &mut failures);
    let reference = warm.fingerprints();

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let mut p = run_pass(opts.workload, &cells, false, recorded);
        check_same(&mut p, &reference, &cells, "repeat pass");
        account(&p, &mut failures);
        plain.push(p);
        if opts.trace {
            let mut t = run_pass(opts.workload, &cells, true, recorded);
            check_same(&mut t, &reference, &cells, "traced pass");
            account(&t, &mut failures);
            traced.push(t);
        }
        let samples = plain.len() * cells.len();
        if Instant::now() >= deadline && samples >= MIN_CELL_SAMPLES {
            break;
        }
    }

    let mut notes = vec![format!(
        "{} cells x {} measured passes (+1 warm-up){}",
        cells.len(),
        plain.len(),
        if opts.trace {
            ", each followed by a traced pass"
        } else {
            ""
        }
    )];
    let refused = warm.runs.iter().flatten().filter(|r| r.refused).count();
    if refused > 0 {
        notes.push(format!(
            "{refused} generated chaos plan(s) failed validation and were refused unrun"
        ));
    }
    let metrics = if opts.trace {
        per_layer(&plain, &traced, &mut notes)
    } else {
        end_to_end(&plain, &mut notes)
    };
    let failed = failures.len() as u64;
    notes.push(format!(
        "failed_frac = {} ({failed} of {attempted} cell runs failed a check)",
        failed as f64 / attempted.max(1) as f64
    ));
    RunOutput {
        attempted,
        failed,
        failures,
        metrics,
        notes,
        spans: traced.into_iter().flat_map(|p| p.spans).collect(),
    }
}

/// Median of `xs` (mean of the middle two for an even count).
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of `xs` (`q` in `(0, 1]`).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn med_over(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(passes: &[Pass], notes: &mut Vec<String>) -> Vec<Metric> {
    // Host times are scaled cell by cell to the reference host (see
    // `calib`); the raw medians are printed alongside.
    let cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            p.runs
                .iter()
                .zip(&p.cell_scale)
                .filter_map(|(r, k)| r.as_ref().map(|r| r.cell_ns as f64 / 1e6 * k))
        })
        .collect();
    let heap_mb: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_heap.iter().map(|&b| b as f64 / 1e6))
        .collect();
    notes.push(format!(
        "cell_ms and peak_heap_mb over {} cell samples; medians over {} passes",
        cell_ms.len(),
        passes.len()
    ));
    notes.push(format!(
        "raw host medians: wall_s {:.6}, setup_s {:.6}, sim_mcycles_per_s {:.4}; \
         host scale {:.4} (reference kernel {:.1} ms)",
        med_over(passes, |p| p.wall_ns as f64 / 1e9),
        med_over(passes, Pass::setup_s),
        med_over(passes, Pass::sim_mcycles_per_s),
        med_over(passes, Pass::scale),
        calib::REF_KERNEL_NS / 1e6
    ));
    vec![
        Metric {
            name: "wall_s",
            value: med_over(passes, |p| p.scaled_s(|r| r.cell_ns)),
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: med_over(passes, |p| p.scaled_s(|r| r.setup_ns)),
            unit: "s",
        },
        Metric {
            name: "sim_mcycles_per_s",
            value: med_over(passes, Pass::scaled_mcycles_per_s),
            unit: "Mcycles/s",
        },
        Metric {
            name: "cell_ms.p50",
            value: quantile(&cell_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "cell_ms.p90",
            value: quantile(&cell_ms, 0.9),
            unit: "ms",
        },
        Metric {
            name: "peak_heap_mb",
            value: quantile(&heap_mb, 0.9),
            unit: "MB",
        },
    ]
}

/// Lock-wait quantiles from the merged per-cell sketches (never the
/// coarse histogram's `p95`, which is not monotone with the sketch's).
fn lock_wait(pass: &Pass) -> (u64, u64) {
    let mut merged = QuantileSketch::new();
    for r in pass.runs.iter().flatten() {
        for (name, text) in &r.snap.sketches {
            if name == "lock_wait_cycles" {
                let s = QuantileSketch::from_text(text).expect("snapshot sketches parse");
                merged.merge(&s);
            }
        }
    }
    let p50 = merged.quantile(0.5).unwrap_or(0);
    let p99 = merged.quantile(0.99).unwrap_or(0);
    assert!(
        p50 <= p99,
        "lock-wait quantiles out of order: p50 {p50} > p99 {p99}"
    );
    (p50, p99)
}

fn per_layer(plain: &[Pass], traced: &[Pass], notes: &mut Vec<String>) -> Vec<Metric> {
    // Simulated values repeat exactly across passes (checked by the
    // fingerprints), so they are read off the first traced pass.
    let t = &traced[0];
    let c = |name: &str| t.counter(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // Host times are scaled to the reference host like the end-to-end
    // metrics, pass by pass.
    let host = |f: &dyn Fn(&Pass) -> f64| med_over(traced, |p| f(p) * p.scale());
    let events = c("evq_events");
    let peak_pending = t
        .runs
        .iter()
        .flatten()
        .map(|r| r.snap.counters.get("evq_peak_pending"))
        .max()
        .unwrap_or(0);
    let (wait_p50, wait_p99) = lock_wait(t);
    let commits = t.sum(|r| r.stm.map_or(0, |s| s.commits)) as f64;
    let aborts = t.sum(|r| r.stm.map_or(0, |s| s.aborts)) as f64;
    let self_s = host(&Pass::run_self_s);
    let hook = |leaf: &'static str| {
        let calls = t.span_calls(leaf) as f64;
        let secs = host(&|p| p.span_busy_s(leaf));
        (calls, secs)
    };
    let (core_calls, core_s) = hook("core/hook");
    let (ssb_calls, ssb_s) = hook("ssb/hook");
    let (sw_calls, sw_s) = hook("swlocks/hook");
    let traced_wall = med_over(traced, |p| p.scaled_s(|r| r.cell_ns));
    let plain_wall = med_over(plain, |p| p.scaled_s(|r| r.cell_ns));
    notes.push(format!(
        "per-layer host times: medians over {} traced passes",
        traced.len()
    ));
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("engine.events", events, "count"),
        m("engine.scheduled", c("evq_scheduled"), "count"),
        m("engine.peak_pending", peak_pending as f64, "count"),
        m("topo.link_msgs", c("net_link_msgs"), "count"),
        m(
            "topo.queue_delay_cycles",
            c("net_queue_delay_cycles"),
            "cycles",
        ),
        m("topo.link_busy_cycles", c("net_link_busy_cycles"), "cycles"),
        m("coherence.gets", c("dir_gets"), "count"),
        m("coherence.getm", c("dir_getm"), "count"),
        m("coherence.invs", c("dir_invs"), "count"),
        m("coherence.queued", c("dir_queued"), "count"),
        m(
            "machine.run_s",
            host(&|p| p.span_busy_s("machine/run") + p.span_busy_s("faults/drive")),
            "s",
        ),
        m("machine.self_s", self_s, "s"),
        m(
            "machine.self_ns_per_event",
            ratio(self_s * 1e9, events),
            "ns/event",
        ),
        m("machine.wire_msgs", c("backend_wire_msgs"), "count"),
        m(
            "machine.watches_fired",
            t.span_calls("machine/watch_fired") as f64,
            "count",
        ),
        m(
            "machine.run_allocs",
            med_over(traced, |p| p.sum(|r| r.run_allocs) as f64),
            "count",
        ),
        m(
            "machine.run_alloc_bytes",
            med_over(traced, |p| p.sum(|r| r.run_alloc_bytes) as f64),
            "B",
        ),
        m("core.hook_calls", core_calls, "count"),
        m("core.hook_s", core_s, "s"),
        m(
            "core.hook_ns_per_call",
            ratio(core_s * 1e9, core_calls),
            "ns/call",
        ),
        m("core.direct_transfers", c("lcu_direct_transfers"), "count"),
        m("core.lrt_forwards", c("lrt_forwards"), "count"),
        m("core.lrt_overflow_hits", c("lrt_overflow_hits"), "count"),
        m("ssb.hook_calls", ssb_calls, "count"),
        m("ssb.hook_s", ssb_s, "s"),
        m("ssb.retries", c("ssb_retries"), "count"),
        m(
            "ssb.grant_ratio",
            ratio(c("ssb_grants"), c("ssb_requests")),
            "ratio",
        ),
        m("swlocks.hook_calls", sw_calls, "count"),
        m("swlocks.hook_s", sw_s, "s"),
        m("swlocks.grants", c("sw_grants"), "count"),
        m("swlocks.mcs_spins", c("sw_mcs_spins"), "count"),
        m(
            "swlocks.rollbacks",
            c("sw_mrsw_rollbacks") + c("sw_fissile_rollbacks"),
            "count",
        ),
        m("lock.granted", c("locks_granted"), "count"),
        m("lock.failed", c("locks_failed"), "count"),
        m("lock.wait_p50_cycles", wait_p50 as f64, "cycles"),
        m("lock.wait_p99_cycles", wait_p99 as f64, "cycles"),
        m(
            "programs.resume_calls",
            t.span_calls("programs/resume") as f64,
            "count",
        ),
        m(
            "programs.resume_s",
            host(&|p| p.span_busy_s("programs/resume")),
            "s",
        ),
        m("stm.commits", commits, "count"),
        m(
            "stm.commit_ratio",
            ratio(commits, commits + aborts),
            "ratio",
        ),
        m(
            "stm.populate_s",
            host(&|p| p.span_busy_s("stm/populate")),
            "s",
        ),
        m(
            "trace.snapshot_s",
            host(&|p| p.span_busy_s("trace/snapshot")),
            "s",
        ),
        m("trace.records", t.sum(|r| r.trace_records) as f64, "count"),
        m("trace.dropped", t.sum(|r| r.trace_dropped) as f64, "count"),
        m(
            "faults.generate_s",
            host(&|p| p.span_busy_s("faults/generate")),
            "s",
        ),
        m(
            "faults.drive_s",
            host(&|p| p.span_busy_s("faults/drive")),
            "s",
        ),
        m(
            "faults.oracle_s",
            host(&|p| p.span_busy_s("faults/oracle")),
            "s",
        ),
        m("faults.injections", t.sum(|r| r.injections) as f64, "count"),
        m("faults.violations", t.sum(|r| r.violations) as f64, "count"),
        m(
            "faults.refused_plans",
            t.sum(|r| u64::from(r.refused)) as f64,
            "count",
        ),
        m(
            "traced.overhead_ratio",
            ratio(traced_wall, plain_wall),
            "ratio",
        ),
    ]
}

/// Formats the final result line: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(out: &RunOutput) -> String {
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// A finite JSON number with every digit of Rust's shortest round-trip
/// formatting.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let out = RunOutput {
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            metrics: vec![Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
            }],
            notes: Vec::new(),
            spans: Vec::new(),
        };
        assert_eq!(
            result_json(&out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
