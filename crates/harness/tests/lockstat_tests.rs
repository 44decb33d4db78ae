//! End-to-end tests of the lockstat pipeline: the starvation watchdog must
//! flag the SSB's reader preference and stay silent for the LCU on the
//! same schedule, the blocking-chain analyzer must reconstruct a known
//! handoff sequence from a real run's trace, and the whole report must be
//! a deterministic function of the seed.

use locksim_harness::lockstat::{run_starvation, tables, StarvationCfg};
use locksim_harness::BackendKind;
use locksim_machine::{blocking_chains, MachineConfig, World};
use locksim_workloads::{CsThread, IterPool};

fn contrast_cfg() -> StarvationCfg {
    StarvationCfg {
        readers: 8,
        reader_iters: 600,
        reader_cs: 400,
        writer_iters: 5,
        watchdog_cycles: 30_000,
        seed: 42,
    }
}

#[test]
fn ssb_watchdog_flags_writer_starvation() {
    let run = run_starvation(BackendKind::Ssb, &contrast_cfg());
    assert!(
        run.writer_starved(),
        "SSB reader preference must starve the writer past the threshold; flags: {:?}",
        run.all_flags()
    );
    let flags = run.all_flags();
    assert!(flags.iter().all(|f| f.write), "only the writer may starve");
    assert!(
        flags.iter().all(|f| f.thread == 8),
        "the single writer is thread 8 (after readers 0..8): {flags:?}"
    );
    let report = run.stats.report(run.end_cycles);
    assert!(report.contains("starvation watchdog"), "report: {report}");
    assert!(
        !run.stats.lock_snapshot(0).contains("acquires"),
        "unknown lock address must render an empty snapshot"
    );
}

#[test]
fn lcu_same_schedule_reports_zero_violations() {
    let run = run_starvation(BackendKind::Lcu, &contrast_cfg());
    assert!(
        run.all_flags().is_empty(),
        "the LCU's fair queue must keep every wait under the threshold: {:?}",
        run.all_flags()
    );
    // The same readers and writer did the same work, just without the
    // starvation: acquisition counts must match the SSB run's.
    let ssb = run_starvation(BackendKind::Ssb, &contrast_cfg());
    let (addr, lcu_stat) = run.stats.locks().next().expect("one profiled lock");
    let ssb_stat = ssb.stats.lock(addr).expect("same lock on SSB");
    assert_eq!(lcu_stat.acquires, ssb_stat.acquires);
    assert_eq!(lcu_stat.releases, ssb_stat.releases);
}

#[test]
fn three_thread_handoff_chain_reconstructs_from_a_real_run() {
    // Three mutually exclusive threads, one critical section each, CS long
    // enough that both losers queue before the first release: the trace
    // must yield exactly one chain covering all three grants in handoff
    // order.
    let mut w = World::new(MachineConfig::model_a(8), BackendKind::Lcu.build(), 7);
    w.enable_trace(1 << 14);
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    let pool = IterPool::new(3);
    for _ in 0..3 {
        w.spawn(Box::new(
            CsThread::new(lock, data, pool.clone(), 100).with_cs_compute(500),
        ));
    }
    w.run_to_completion();
    let chains = blocking_chains(w.mach_ref().tracer().events());
    assert_eq!(chains.len(), 1, "one lock, one chain: {chains:?}");
    let c = &chains[0];
    assert_eq!(c.lock, lock.0);
    assert_eq!(c.links.len(), 3, "all three grants chain: {c:?}");
    assert!(c.links.iter().all(|l| l.write));
    let mut threads: Vec<u32> = c.links.iter().map(|l| l.thread).collect();
    threads.sort_unstable();
    assert_eq!(threads, vec![0, 1, 2], "each thread appears once: {c:?}");
    // Handoff order is grant order: timestamps strictly increase, and the
    // head of the chain is the uncontended winner (smallest wait).
    for pair in c.links.windows(2) {
        assert!(pair[0].granted_at < pair[1].granted_at, "{c:?}");
        assert!(pair[0].wait < pair[1].wait, "waits accumulate: {c:?}");
    }
    assert_eq!(c.total_wait, c.links.iter().map(|l| l.wait).sum::<u64>());
}

#[test]
fn lockstat_outputs_are_byte_identical_across_same_seed_runs() {
    let cfg = contrast_cfg();
    let a = [
        run_starvation(BackendKind::Ssb, &cfg),
        run_starvation(BackendKind::Lcu, &cfg),
    ];
    let b = [
        run_starvation(BackendKind::Ssb, &cfg),
        run_starvation(BackendKind::Lcu, &cfg),
    ];
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.report(), y.report(), "text report must be deterministic");
    }
    let csv_of = |runs: &[locksim_harness::lockstat::LockstatRun]| {
        tables(&cfg, runs)
            .iter()
            .map(|t| t.markdown())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(csv_of(&a), csv_of(&b), "tables must be deterministic");
    // And the verdict table itself must show the headline contrast.
    let rendered = csv_of(&a);
    assert!(rendered.contains("| ssb | STARVED |"), "{rendered}");
    assert!(rendered.contains("| lcu | ok |"), "{rendered}");
}
