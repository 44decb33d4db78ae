//! The recorded default-seed fingerprints against the harness executors.
//!
//! The benchmark builds its cells itself (to time set-up apart and to wrap
//! each layer); these tests show that every recorded cell equals what the
//! harness's own executor produces for the same arguments, on every field
//! the executor returns. Run with `--release`: they simulate every cell.

use locksim_faults::{generate, FuzzConfig};
use locksim_harness::chaos::{run_chaos, DEFAULT_QUIESCE};
use locksim_harness::{run_app, run_microbench, run_stm, ModelSel};
use locksim_perfbench::cells::{cells, Shape, Workload};
use locksim_perfbench::fingerprint::{Fingerprint, Recorded, DEFAULT_SEED};

/// Reads `key=value` from an STM digest.
fn digest(fp: &Fingerprint, key: &str) -> u64 {
    fp.extra
        .split(',')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{}: no {key} in digest {:?}", fp.label, fp.extra))
}

fn check_workload(w: Workload) {
    let rec = Recorded::builtin();
    for cell in cells(w, DEFAULT_SEED) {
        let fp = rec
            .get(w.name(), &cell.label)
            .unwrap_or_else(|| panic!("{} is not recorded", cell.label));
        match cell.shape {
            Shape::Micro {
                model,
                backend,
                threads,
                write_pct,
                iters,
            } => {
                let r = run_microbench(model, backend, threads, write_pct, iters, cell.seed);
                assert_eq!(r.total_cycles, fp.end_cycle, "{}", cell.label);
                assert_eq!(
                    r.metrics.counters.get("evq_events"),
                    fp.events,
                    "{}",
                    cell.label
                );
                assert_eq!(
                    r.metrics.counters.get("locks_granted"),
                    fp.granted,
                    "{}",
                    cell.label
                );
                assert_eq!(r.per_thread_acquires, fp.acquires, "{}", cell.label);
            }
            Shape::Stm {
                variant,
                structure,
                nodes,
                threads,
                txns,
                read_pct,
            } => {
                let r = run_stm(
                    ModelSel::A,
                    variant,
                    structure,
                    nodes,
                    threads,
                    txns,
                    read_pct,
                    cell.seed,
                );
                let commits = digest(fp, "commits") as f64;
                assert_eq!(
                    r.cycles_per_tx,
                    digest(fp, "tx_cycles") as f64 / commits,
                    "{}",
                    cell.label
                );
                assert_eq!(
                    r.abort_ratio,
                    digest(fp, "aborts") as f64 / commits,
                    "{}",
                    cell.label
                );
                assert_eq!(
                    r.dissection.total(),
                    digest(fp, "dissect"),
                    "{}",
                    cell.label
                );
            }
            Shape::App { app, backend } => {
                assert_eq!(
                    run_app(app, backend, cell.seed),
                    fp.end_cycle,
                    "{}",
                    cell.label
                );
            }
            Shape::Chaos { fuzz } => {
                let case = generate(fuzz, &FuzzConfig::default());
                let run = run_chaos(
                    case.backend,
                    &case.workload,
                    cell.seed,
                    &case.plan,
                    DEFAULT_QUIESCE,
                );
                let Ok(run) = run else {
                    assert_eq!(fp.verdict, "REFUSED", "{}", cell.label);
                    continue;
                };
                assert_eq!(run.outcome.end_cycle, fp.end_cycle, "{}", cell.label);
                assert_eq!(
                    run.metrics.counters.get("evq_events"),
                    fp.events,
                    "{}",
                    cell.label
                );
                assert_eq!(
                    run.metrics.counters.get("locks_granted"),
                    fp.granted,
                    "{}",
                    cell.label
                );
                assert_eq!(run.verdict, fp.verdict, "{}", cell.label);
            }
        }
    }
}

#[test]
fn handoff_hw_matches_run_microbench() {
    check_workload(Workload::HandoffHw);
}

#[test]
fn handoff_sw_matches_run_microbench() {
    check_workload(Workload::HandoffSw);
}

#[test]
fn stm_apps_match_run_stm_and_run_app() {
    check_workload(Workload::StmApps);
}

#[test]
fn chaos_check_matches_run_chaos() {
    check_workload(Workload::ChaosCheck);
}
