//! The `benchsim` bin's workload: a fixed, standardized scenario suite
//! measured on the host (wall time, simulated-cycles/sec, events/sec,
//! event-queue waterlines, allocation churn), emitted as machine-readable
//! `BENCH_NNNN.json` and compared against a checked-in baseline.
//!
//! This seeds the performance trajectory ROADMAP item 2 is judged
//! against: every optimization PR records a new `BENCH_NNNN.json` at the
//! repo root, and CI runs the comparator against the latest checked-in
//! baseline so a wall-time or allocation regression fails the gate.
//!
//! The suite mixes the three simulator workload families:
//! representative figure-panel microbenchmarks (`micro/*`), two faultsim
//! matrix cells (`faultsim/*` — including the MCS suspend cell that runs
//! to its liveness deadline), and two chaos fuzz seeds (`chaos/*`).
//! Scenario sizes are fixed constants — deliberately independent of
//! `LOCKSIM_QUICK` — so any two runs of the same suite are comparable;
//! `--quick` selects a smaller suite (named `quick`) for local iteration,
//! and the comparator refuses to compare reports from different suites.
//!
//! Simulation-derived fields (`sim_cycles`, `events`, `peak_queue`) are
//! deterministic for a given suite, so the comparator requires them to
//! match the baseline *exactly* — a mismatch means the simulation itself
//! changed and a new baseline must be recorded, not that the machine was
//! slow. Host-derived fields (wall time, allocations) are compared with a
//! multiplicative tolerance.

use std::path::PathBuf;
use std::time::Instant;

use locksim_faults::{generate, FuzzConfig};
use locksim_machine::MetricsSnapshot;
use locksim_report::json;
use locksim_swlocks::SwAlg;
use locksim_trace::alloc;

use crate::chaos::{run_chaos, DEFAULT_QUIESCE};
use crate::faultsim::{run_cell_observed, FaultClass, FaultsimCfg};
use crate::run::{run_microbench, BackendKind, ModelSel};
use crate::table::Table;
use crate::{finish_bin, obs};

/// Schema tag written to (and required of) every bench report.
pub const SCHEMA: &str = "locksim-bench-v1";

/// Default multiplicative tolerance for host-derived comparisons.
pub const DEFAULT_TOLERANCE: f64 = 2.0;

/// Simulation-side outputs of one scenario (deterministic per suite).
#[derive(Debug, Clone, Copy)]
struct SimStats {
    sim_cycles: u64,
    events: u64,
    peak_queue: u64,
}

impl SimStats {
    /// Pulls the event-queue telemetry out of an end-of-run snapshot.
    fn from_snapshot(end_cycle: u64, snap: &MetricsSnapshot) -> SimStats {
        SimStats {
            sim_cycles: end_cycle,
            events: snap.counters.get("evq_events"),
            peak_queue: snap.counters.get("evq_peak_pending"),
        }
    }
}

/// One measured scenario: the simulation-derived fields plus the host-side
/// wall time and allocation churn.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name (`family/variant/...`), the comparator's join key.
    pub name: String,
    /// Host wall time of the scenario, in milliseconds.
    pub wall_ms: f64,
    /// Simulated cycles the scenario covered.
    pub sim_cycles: u64,
    /// Simulation events dispatched.
    pub events: u64,
    /// Event-queue occupancy high-water mark.
    pub peak_queue: u64,
    /// Heap allocations during the scenario (0 when not counting).
    pub allocs: u64,
    /// Bytes allocated during the scenario.
    pub alloc_bytes: u64,
    /// Peak live heap bytes during the scenario.
    pub peak_bytes: u64,
}

impl ScenarioResult {
    /// Simulated events per host second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ms / 1_000.0)
        }
    }

    /// Simulated megacycles per host second.
    pub fn mcycles_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.sim_cycles as f64 / 1e6 / (self.wall_ms / 1_000.0)
        }
    }
}

/// A full bench run: which suite ran, whether the counting allocator was
/// installed (the `benchsim` bin installs it; library/test callers don't),
/// and the per-scenario measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Suite name (`standard` or `quick`).
    pub suite: String,
    /// Whether allocation counters were live (comparing allocation fields
    /// is only meaningful when both reports counted).
    pub alloc_counting: bool,
    /// Per-scenario measurements, in suite order.
    pub scenarios: Vec<ScenarioResult>,
}

/// Runs one scenario body under the measurement bracket: wall clock plus
/// allocation deltas, with the peak-live waterline reset so `peak_bytes`
/// is per-phase.
///
/// Wall clock covers the whole body, but the allocation numbers come from
/// the run-phase window the simulator's event loop brackets itself with
/// ([`alloc::take_run_phase`]): world construction, metrics snapshotting
/// and report assembly are excluded, so the counters measure per-event
/// churn only.
fn measure(name: &str, body: impl FnOnce() -> SimStats) -> ScenarioResult {
    alloc::reset_peak();
    let _ = alloc::take_run_phase();
    let t0 = Instant::now();
    let sim = body();
    let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    let after = alloc::take_run_phase().unwrap_or_default();
    ScenarioResult {
        name: name.to_string(),
        wall_ms,
        sim_cycles: sim.sim_cycles,
        events: sim.events,
        peak_queue: sim.peak_queue,
        allocs: after.allocs,
        alloc_bytes: after.bytes_allocated,
        peak_bytes: after.peak_bytes,
    }
}

fn micro_stats(
    model: ModelSel,
    backend: BackendKind,
    threads: usize,
    write_pct: u32,
    iters: u64,
) -> SimStats {
    let r = run_microbench(model, backend, threads, write_pct, iters, 42);
    SimStats {
        sim_cycles: r.total_cycles,
        events: r.metrics.counters.get("evq_events"),
        peak_queue: r.metrics.counters.get("evq_peak_pending"),
    }
}

fn faultsim_stats(backend: BackendKind, class: FaultClass, iters: u64) -> SimStats {
    // Fixed sizes (not `scaled`): suite results must not depend on
    // LOCKSIM_QUICK.
    let cfg = FaultsimCfg {
        threads: 4,
        iters,
        seed: 42,
        horizon: 30_000,
    };
    let (cell, snap) = run_cell_observed(backend, class, &cfg);
    SimStats::from_snapshot(cell.end_cycle, &snap)
}

fn chaos_stats(seed: u64) -> SimStats {
    let case = generate(seed, &FuzzConfig::default());
    let run = run_chaos(
        case.backend,
        &case.workload,
        seed,
        &case.plan,
        DEFAULT_QUIESCE,
    )
    .unwrap_or_else(|e| panic!("chaos seed {seed} generated an unrunnable case: {e}"));
    SimStats::from_snapshot(run.outcome.end_cycle, &run.metrics)
}

/// Runs the suite and collects the report. `quick` selects the smaller
/// `quick` suite; otherwise the `standard` suite that baselines are
/// recorded on.
pub fn run_suite(quick: bool) -> BenchReport {
    let micro_iters: u64 = if quick { 1_000 } else { 6_000 };
    let fault_iters: u64 = if quick { 100 } else { 400 };
    let mut scenarios = Vec::new();
    let micro = |name: &str, model, backend, threads, wp| {
        eprintln!("benchsim: running {name} ...");
        measure(name, || {
            micro_stats(model, backend, threads, wp, micro_iters)
        })
    };
    scenarios.push(micro(
        "micro/lcu/a16w100",
        ModelSel::A,
        BackendKind::Lcu,
        16,
        100,
    ));
    scenarios.push(micro(
        "micro/lcu+flt/a16w100",
        ModelSel::A,
        BackendKind::LcuFlt,
        16,
        100,
    ));
    scenarios.push(micro(
        "micro/ssb/a16w100",
        ModelSel::A,
        BackendKind::Ssb,
        16,
        100,
    ));
    scenarios.push(micro(
        "micro/mcs/a16w100",
        ModelSel::A,
        BackendKind::Sw(SwAlg::Mcs),
        16,
        100,
    ));
    scenarios.push(micro(
        "micro/bravo/a16w10",
        ModelSel::A,
        BackendKind::Sw(SwAlg::Bravo),
        16,
        10,
    ));
    scenarios.push(micro(
        "micro/fissile/a16w10",
        ModelSel::A,
        BackendKind::Sw(SwAlg::Fissile),
        16,
        10,
    ));
    scenarios.push(micro(
        "micro/lcu/a32w50",
        ModelSel::A,
        BackendKind::Lcu,
        32,
        50,
    ));
    for (name, backend) in [
        ("faultsim/lcu/suspend", BackendKind::Lcu),
        ("faultsim/mcs/suspend", BackendKind::Sw(SwAlg::Mcs)),
    ] {
        eprintln!("benchsim: running {name} ...");
        scenarios.push(measure(name, || {
            faultsim_stats(backend, FaultClass::Suspend, fault_iters)
        }));
    }
    let chaos_seeds: &[u64] = if quick { &[0] } else { &[0, 8] };
    for &seed in chaos_seeds {
        let name = format!("chaos/s{seed}");
        eprintln!("benchsim: running {name} ...");
        scenarios.push(measure(&name, || chaos_stats(seed)));
    }
    BenchReport {
        suite: if quick { "quick" } else { "standard" }.to_string(),
        alloc_counting: alloc::snapshot().installed,
        scenarios,
    }
}

// ---------------------------------------------------------------------------
// JSON emit / parse (hand-rolled: the workspace deliberately has no serde)
// ---------------------------------------------------------------------------

impl BenchReport {
    /// Serializes in a fixed key order, so reports diff cleanly.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"suite\": \"{}\",\n", self.suite));
        s.push_str(&format!("  \"alloc_counting\": {},\n", self.alloc_counting));
        s.push_str("  \"scenarios\": [\n");
        for (i, sc) in self.scenarios.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"sim_cycles\": {}, \
                 \"events\": {}, \"events_per_sec\": {:.0}, \"mcycles_per_sec\": {:.2}, \
                 \"peak_queue\": {}, \"allocs\": {}, \"alloc_bytes\": {}, \"peak_bytes\": {}}}{}\n",
                sc.name,
                sc.wall_ms,
                sc.sim_cycles,
                sc.events,
                sc.events_per_sec(),
                sc.mcycles_per_sec(),
                sc.peak_queue,
                sc.allocs,
                sc.alloc_bytes,
                sc.peak_bytes,
                if i + 1 < self.scenarios.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a report produced by [`BenchReport::to_json`] (or any JSON
    /// with the same shape).
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong `schema` tag, or a
    /// missing required field.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = json::parse(text)?;
        let schema = v.get_str("schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            ));
        }
        let suite = v.get_str("suite")?.to_string();
        let alloc_counting = v.get_bool("alloc_counting")?;
        let mut scenarios = Vec::new();
        for item in v.get_arr("scenarios")? {
            scenarios.push(ScenarioResult {
                name: item.get_str("name")?.to_string(),
                wall_ms: item.get_num("wall_ms")?,
                sim_cycles: item.get_num("sim_cycles")? as u64,
                events: item.get_num("events")? as u64,
                peak_queue: item.get_num("peak_queue")? as u64,
                allocs: item.get_num("allocs")? as u64,
                alloc_bytes: item.get_num("alloc_bytes")? as u64,
                peak_bytes: item.get_num("peak_bytes")? as u64,
            });
        }
        Ok(BenchReport {
            suite,
            alloc_counting,
            scenarios,
        })
    }
}

// ---------------------------------------------------------------------------
// Comparator
// ---------------------------------------------------------------------------

/// The comparator's verdict: the regression table plus pass/fail.
#[derive(Debug)]
pub struct Comparison {
    /// One row per compared metric.
    pub table: Table,
    /// Human-readable failure reasons (empty when the gate passes).
    pub failures: Vec<String>,
}

impl Comparison {
    /// Whether the current report passes against the baseline.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn ratio(cur: f64, base: f64) -> f64 {
    if base <= 0.0 {
        if cur <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        cur / base
    }
}

/// Compares `cur` against `base` with multiplicative tolerance `tol` on
/// the host-derived fields. Deterministic simulation fields must match
/// exactly; host fields fail only on *regression* (`cur > base * tol`) so
/// a faster run always passes.
///
/// # Errors
///
/// Returns a message when the reports are not comparable (different
/// suites).
pub fn compare(base: &BenchReport, cur: &BenchReport, tol: f64) -> Result<Comparison, String> {
    if base.suite != cur.suite {
        return Err(format!(
            "suite mismatch: baseline is {:?}, current is {:?} — record a baseline with the \
             same suite",
            base.suite, cur.suite
        ));
    }
    let mut table = Table::new(
        format!(
            "benchsim — current vs baseline ({} suite, tolerance {tol}x on host metrics)",
            cur.suite
        ),
        &["scenario", "metric", "baseline", "current", "ratio", "gate"],
    );
    let mut failures = Vec::new();
    let check_alloc = base.alloc_counting && cur.alloc_counting;
    for b in &base.scenarios {
        let Some(c) = cur.scenarios.iter().find(|c| c.name == b.name) else {
            failures.push(format!("scenario {} missing from current run", b.name));
            continue;
        };
        // Deterministic fields: exact match or the simulation changed.
        for (metric, bv, cv) in [
            ("sim_cycles", b.sim_cycles, c.sim_cycles),
            ("events", b.events, c.events),
            ("peak_queue", b.peak_queue, c.peak_queue),
        ] {
            let ok = bv == cv;
            table.push(vec![
                b.name.clone(),
                metric.to_string(),
                bv.to_string(),
                cv.to_string(),
                format!("{:.3}", ratio(cv as f64, bv as f64)),
                if ok { "ok (exact)" } else { "SIM DRIFT" }.to_string(),
            ]);
            if !ok {
                failures.push(format!(
                    "{}: {metric} drifted {bv} -> {cv} (simulation changed; record a new \
                     BENCH_NNNN.json baseline)",
                    b.name
                ));
            }
        }
        // Host fields: one-sided tolerance.
        let mut host = vec![("wall_ms", b.wall_ms, c.wall_ms)];
        if check_alloc {
            host.push(("allocs", b.allocs as f64, c.allocs as f64));
            host.push(("alloc_bytes", b.alloc_bytes as f64, c.alloc_bytes as f64));
            host.push(("peak_bytes", b.peak_bytes as f64, c.peak_bytes as f64));
        }
        for (metric, bv, cv) in host {
            let r = ratio(cv, bv);
            let ok = r <= tol;
            table.push(vec![
                b.name.clone(),
                metric.to_string(),
                format!("{bv:.3}"),
                format!("{cv:.3}"),
                format!("{r:.3}"),
                if ok { "ok" } else { "REGRESSION" }.to_string(),
            ]);
            if !ok {
                failures.push(format!(
                    "{}: {metric} regressed {r:.2}x (baseline {bv:.3}, current {cv:.3}, \
                     tolerance {tol}x)",
                    b.name
                ));
            }
        }
    }
    for c in &cur.scenarios {
        if !base.scenarios.iter().any(|b| b.name == c.name) {
            // New scenarios are informational, not failures: baselines
            // only gate what they recorded.
            table.push(vec![
                c.name.clone(),
                "(new scenario)".to_string(),
                "-".to_string(),
                format!("{:.3}", c.wall_ms),
                "-".to_string(),
                "ok (unguarded)".to_string(),
            ]);
        }
    }
    Ok(Comparison { table, failures })
}

/// Renders the wall-time / sim-cycle trajectory across a list of baseline
/// reports plus the current run: one column per baseline (in the given
/// order — chronological when the `BENCH_NNNN.json` naming is followed)
/// and a final `current` column. Scenarios absent from a report render as
/// `-`.
pub fn trend_table(history: &[(String, BenchReport)], cur: &BenchReport) -> Table {
    let mut header: Vec<String> = vec!["scenario".to_string(), "metric".to_string()];
    header.extend(history.iter().map(|(name, _)| name.clone()));
    header.push("current".to_string());
    let cols: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "benchsim — trajectory across {} baseline(s) ({} suite)",
            history.len(),
            cur.suite
        ),
        &cols,
    );
    let cell = |r: &BenchReport, name: &str, wall: bool| -> String {
        r.scenarios
            .iter()
            .find(|s| s.name == name)
            .map(|s| {
                if wall {
                    format!("{:.1}", s.wall_ms)
                } else {
                    s.sim_cycles.to_string()
                }
            })
            .unwrap_or_else(|| "-".to_string())
    };
    for s in &cur.scenarios {
        for (metric, wall) in [("wall_ms", true), ("sim_cycles", false)] {
            let mut row = vec![s.name.clone(), metric.to_string()];
            for (_, b) in history {
                row.push(cell(b, &s.name, wall));
            }
            row.push(cell(cur, &s.name, wall));
            t.push(row);
        }
    }
    t
}

/// Renders the measured suite as the bin's stdout table.
pub fn report_table(r: &BenchReport) -> Table {
    let mut t = Table::new(
        format!(
            "benchsim — {} suite (alloc counting {})",
            r.suite,
            if r.alloc_counting { "on" } else { "off" }
        ),
        &[
            "scenario",
            "wall ms",
            "sim cycles",
            "events",
            "events/s",
            "Mcyc/s",
            "peak queue",
            "allocs",
            "alloc MB",
            "peak MB",
        ],
    );
    for s in &r.scenarios {
        t.push(vec![
            s.name.clone(),
            format!("{:.1}", s.wall_ms),
            s.sim_cycles.to_string(),
            s.events.to_string(),
            format!("{:.0}", s.events_per_sec()),
            format!("{:.2}", s.mcycles_per_sec()),
            s.peak_queue.to_string(),
            s.allocs.to_string(),
            format!("{:.2}", s.alloc_bytes as f64 / 1e6),
            format!("{:.2}", s.peak_bytes as f64 / 1e6),
        ]);
    }
    t
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: benchsim [--quick] [--out <path>] [--baseline <BENCH_NNNN.json>]... \
         [--no-baseline] [--tolerance <x>] \
         [shared flags: --trace/--trace-cap/--self-profile ...]\n\
         \n\
         With no --baseline, the latest checked-in BENCH_<digits>.json in the\n\
         current directory gates the run; --baseline may repeat — the gate\n\
         compares against the last one and the full list renders as a\n\
         trajectory table. --no-baseline skips the gate entirely."
    );
    std::process::exit(2);
}

/// Entry point of the `benchsim` bin: runs the suite, writes the JSON
/// report, prints the regression table against the baseline(s), and exits
/// non-zero past the tolerance.
///
/// Baseline selection: every `--baseline` (repeatable, in order) joins the
/// trajectory table and the *last* one is the gate; with none given, the
/// latest checked-in `BENCH_<digits>.json` in the current directory is
/// auto-discovered, and `--no-baseline` disables gating.
pub fn cli_main() {
    // `--baseline` repeats, which the uniform flag parser's map cannot
    // hold — strip its occurrences first, in order.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut baselines: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--baseline" {
            if i + 1 >= args.len() {
                usage_exit("--baseline requires a value");
            }
            baselines.push(PathBuf::from(args.remove(i + 1)));
            args.remove(i);
        } else {
            i += 1;
        }
    }
    let flags = [
        obs::BinFlag {
            name: "--quick",
            takes_value: false,
        },
        obs::BinFlag {
            name: "--no-baseline",
            takes_value: false,
        },
        obs::BinFlag {
            name: "--out",
            takes_value: true,
        },
        obs::BinFlag {
            name: "--tolerance",
            takes_value: true,
        },
    ];
    let (opts, extras) = match obs::parse_bin_cli(&args, &flags) {
        Ok(x) => x,
        Err(msg) => usage_exit(&msg),
    };
    obs::apply_opts(&opts);
    let quick = extras.contains_key("--quick");
    let out_path = extras
        .get("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_current.json"));
    let tolerance = match extras.get("--tolerance") {
        None => DEFAULT_TOLERANCE,
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t >= 1.0 => t,
            _ => usage_exit(&format!(
                "--tolerance: invalid factor {v:?} (must be >= 1.0)"
            )),
        },
    };
    let mut auto_discovered = false;
    if baselines.is_empty() && !extras.contains_key("--no-baseline") {
        match locksim_report::discover_benches(std::path::Path::new(".")).pop() {
            Some(p) => {
                eprintln!("benchsim: auto-discovered baseline {}", p.display());
                baselines.push(p);
                auto_discovered = true;
            }
            None => eprintln!("benchsim: no BENCH_<digits>.json baseline found — running ungated"),
        }
    }

    let report = run_suite(quick);
    println!("{}", report_table(&report).markdown());
    if let Some(dir) = out_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create bench output dir");
    }
    std::fs::write(&out_path, report.to_json())
        .unwrap_or_else(|e| panic!("write bench report {}: {e}", out_path.display()));
    eprintln!("benchsim: wrote {}", out_path.display());

    let history: Vec<(String, BenchReport)> = baselines
        .iter()
        .map(|bp| {
            let text = std::fs::read_to_string(bp)
                .unwrap_or_else(|e| usage_exit(&format!("read baseline {}: {e}", bp.display())));
            let base = BenchReport::from_json(&text)
                .unwrap_or_else(|e| usage_exit(&format!("parse baseline {}: {e}", bp.display())));
            let name = bp
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| bp.display().to_string());
            (name, base)
        })
        .collect();
    // The full history (even one entry) renders the trajectory; only
    // same-suite baselines join it — the gate still rejects a mismatch.
    let same_suite: Vec<(String, BenchReport)> = history
        .iter()
        .filter(|(_, b)| b.suite == report.suite)
        .cloned()
        .collect();
    if !same_suite.is_empty() {
        println!("{}", trend_table(&same_suite, &report).markdown());
    }

    let mut failed = false;
    let mut gate_verdicts: Vec<(String, String)> = Vec::new();
    if let Some((name, base)) = history.last() {
        match compare(base, &report, tolerance) {
            Ok(cmp) => {
                println!("{}", cmp.table.markdown());
                if cmp.ok() {
                    eprintln!("benchsim: PASS against {name}");
                } else {
                    for f in &cmp.failures {
                        eprintln!("benchsim: FAIL {f}");
                    }
                    failed = true;
                }
                gate_verdicts.push((
                    "gate".to_string(),
                    if cmp.ok() { "pass" } else { "fail" }.to_string(),
                ));
                gate_verdicts.push(("baseline".to_string(), name.clone()));
            }
            // An auto-discovered baseline of a different suite (e.g. a
            // --quick run next to the checked-in standard trajectory) is
            // not an error — the gate just doesn't apply.
            Err(msg) if auto_discovered => {
                eprintln!("benchsim: skipping gate — {msg}");
                gate_verdicts.push(("gate".to_string(), "skipped".to_string()));
            }
            Err(msg) => usage_exit(&msg),
        }
    }
    write_gate_manifest(&report, &gate_verdicts);
    finish_bin("benchsim");
    if failed {
        std::process::exit(1);
    }
}

/// Writes the comparator's own ledger manifest (bin `benchsim`, label
/// `gate`): the suite name as config, the summed simulated cycles, and the
/// gate verdicts — so the dashboard's verdict matrix shows the perf gate
/// next to the oracle verdicts. Ungated runs record `gate: ungated`.
fn write_gate_manifest(report: &BenchReport, gate_verdicts: &[(String, String)]) {
    let empty = MetricsSnapshot {
        counters: Default::default(),
        hists: Vec::new(),
        sketches: Vec::new(),
    };
    let mut verdicts: Vec<locksim_report::Verdict> = gate_verdicts
        .iter()
        .map(|(name, verdict)| locksim_report::Verdict {
            name: name.clone(),
            verdict: verdict.clone(),
        })
        .collect();
    if verdicts.is_empty() {
        verdicts.push(locksim_report::Verdict {
            name: "gate".to_string(),
            verdict: "ungated".to_string(),
        });
    }
    let total_cycles: u64 = report.scenarios.iter().map(|s| s.sim_cycles).sum();
    let m = locksim_report::RunManifest::from_snapshot(
        "benchsim",
        "gate",
        &report.suite,
        0,
        total_cycles,
        verdicts,
        &empty,
        None,
    );
    let dir = std::path::Path::new("results/runs");
    locksim_report::write_manifest(dir, &m)
        .unwrap_or_else(|e| panic!("write gate manifest to {}: {e}", dir.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(suite: &str, wall: f64, cycles: u64, allocs: u64) -> BenchReport {
        BenchReport {
            suite: suite.to_string(),
            alloc_counting: true,
            scenarios: vec![ScenarioResult {
                name: "micro/x".to_string(),
                wall_ms: wall,
                sim_cycles: cycles,
                events: 10 * cycles,
                peak_queue: 7,
                allocs,
                alloc_bytes: allocs * 64,
                peak_bytes: 4096,
            }],
        }
    }

    #[test]
    fn json_roundtrips() {
        let r = report("standard", 12.345, 1_000_000, 5_000);
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.suite, "standard");
        assert!(parsed.alloc_counting);
        assert_eq!(parsed.scenarios.len(), 1);
        let s = &parsed.scenarios[0];
        assert_eq!(s.name, "micro/x");
        assert_eq!(s.sim_cycles, 1_000_000);
        assert_eq!(s.events, 10_000_000);
        assert_eq!(s.peak_queue, 7);
        assert_eq!(s.allocs, 5_000);
        assert!((s.wall_ms - 12.345).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_schema() {
        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json(
            "{\"schema\": \"other-v9\", \"suite\": \"s\", \"alloc_counting\": false, \
             \"scenarios\": []}"
        )
        .is_err());
        // Trailing junk is an error, not silently ignored.
        let r = report("standard", 1.0, 10, 1);
        let mut text = r.to_json();
        text.push_str("trailing");
        assert!(BenchReport::from_json(&text).is_err());
    }

    #[test]
    fn identical_reports_pass() {
        let r = report("standard", 10.0, 500, 100);
        let cmp = compare(&r, &r.clone(), 1.0).unwrap();
        assert!(cmp.ok(), "{:?}", cmp.failures);
    }

    #[test]
    fn faster_run_passes_slower_fails() {
        let base = report("standard", 10.0, 500, 100);
        let fast = report("standard", 2.0, 500, 100);
        assert!(compare(&base, &fast, 2.0).unwrap().ok());
        let slow = report("standard", 25.0, 500, 100);
        let cmp = compare(&base, &slow, 2.0).unwrap();
        assert!(!cmp.ok());
        assert!(cmp.failures[0].contains("wall_ms"), "{:?}", cmp.failures);
        // Within tolerance is fine.
        let mild = report("standard", 19.0, 500, 100);
        assert!(compare(&base, &mild, 2.0).unwrap().ok());
    }

    #[test]
    fn sim_drift_fails_regardless_of_tolerance() {
        let base = report("standard", 10.0, 500, 100);
        let drift = report("standard", 10.0, 501, 100);
        let cmp = compare(&base, &drift, 1_000.0).unwrap();
        assert!(!cmp.ok());
        assert!(
            cmp.failures.iter().any(|f| f.contains("sim_cycles")),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn alloc_regression_fails_only_when_both_counted() {
        let base = report("standard", 10.0, 500, 100);
        let bloated = report("standard", 10.0, 500, 10_000);
        assert!(!compare(&base, &bloated, 2.0).unwrap().ok());
        let mut base_nc = base.clone();
        base_nc.alloc_counting = false;
        assert!(
            compare(&base_nc, &bloated, 2.0).unwrap().ok(),
            "alloc fields are not compared when the baseline did not count"
        );
    }

    #[test]
    fn suite_mismatch_is_an_error_not_a_pass() {
        let base = report("standard", 10.0, 500, 100);
        let cur = report("quick", 10.0, 500, 100);
        assert!(compare(&base, &cur, 2.0).is_err());
    }

    #[test]
    fn missing_scenario_fails_new_scenario_passes() {
        let base = report("standard", 10.0, 500, 100);
        let mut cur = base.clone();
        cur.scenarios[0].name = "micro/renamed".to_string();
        let cmp = compare(&base, &cur, 2.0).unwrap();
        assert!(!cmp.ok(), "baseline scenario vanished");
        assert!(cmp.failures[0].contains("missing"), "{:?}", cmp.failures);

        let mut grown = base.clone();
        grown.scenarios.push(ScenarioResult {
            name: "micro/extra".to_string(),
            ..base.scenarios[0].clone()
        });
        assert!(compare(&base, &grown, 2.0).unwrap().ok());
    }

    #[test]
    fn derived_rates_handle_zero_wall() {
        let mut s = report("standard", 0.0, 500, 1).scenarios.remove(0);
        assert_eq!(s.events_per_sec(), 0.0);
        s.wall_ms = 1_000.0;
        assert!((s.events_per_sec() - 5_000.0).abs() < 1e-9);
        assert!((s.mcycles_per_sec() - 0.0005).abs() < 1e-12);
    }
}
