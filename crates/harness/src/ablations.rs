//! Ablations of the LCU's design choices (DESIGN.md §ablations), measured
//! in simulated cycles.
//!
//! Each cell changes one LCU knob, runs one world to completion at a fixed
//! seed and reports its final simulated cycle. The simulation is
//! deterministic, so one run per cell is the whole measurement: the table
//! compares the architecture, not the host.
//!
//! * `direct_transfer` — direct LCU→LCU grants vs routing every transfer
//!   through the home LRT (the paper's headline mechanism).
//! * `fast_reacquire` — RD_REL local re-acquisition on vs off.
//! * `grant_timeout` — sensitivity to the §III-C timeout threshold under
//!   oversubscription.
//! * `lcu_entries` — table size 2 vs 8 vs 16 under multi-lock load.
//! * `reservation` — LRT anti-starvation reservation on vs off under
//!   entry-exhaustion pressure.
//! * `flt` — the free-lock table off vs 4 entries on a private-lock
//!   pattern (the paper's Radiosity observation, §IV-C).

use locksim_core::LcuBackend;
use locksim_machine::testing::ScriptProgram;
use locksim_machine::{Action, Addr, MachineConfig, Mode, World};
use locksim_workloads::{CsThread, IterPool};

use crate::table::{ratio, Table};

/// Critical sections per microbenchmark cell.
const ITERS: u64 = 2_000;
/// World seed of every cell.
const SEED: u64 = 42;

/// Runs `threads` [`CsThread`]s over one contended lock and one data line
/// on an LCU machine built from `cfg`; returns the final simulated cycle.
fn micro_cycles(cfg: MachineConfig, threads: usize, write_pct: u32) -> u64 {
    let mut w = World::new(cfg, Box::new(LcuBackend::new()), SEED);
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    let pool = IterPool::new(ITERS);
    for _ in 0..threads {
        w.spawn(Box::new(CsThread::new(lock, data, pool.clone(), write_pct)));
    }
    w.run_to_completion();
    w.mach().now().cycles()
}

/// Spawns one [`ScriptProgram`] per script on an LCU machine built from
/// `cfg` with `locks` lock lines; returns the final simulated cycle.
fn script_cycles(
    cfg: MachineConfig,
    locks: usize,
    scripts: impl Fn(&[Addr]) -> Vec<Vec<Action>>,
) -> u64 {
    let mut w = World::new(cfg, Box::new(LcuBackend::new()), SEED);
    let locks: Vec<_> = (0..locks).map(|_| w.mach().alloc().alloc_line()).collect();
    for script in scripts(&locks) {
        w.spawn(Box::new(ScriptProgram::new(script)));
    }
    w.run_to_completion();
    w.mach().now().cycles()
}

/// 8 threads each take all 12 locks in read mode at once, 20 times, so
/// small LCU tables overflow into nonblocking mode.
fn multi_read_scripts(locks: &[Addr]) -> Vec<Vec<Action>> {
    let round = locks
        .iter()
        .map(|&lock| Action::Acquire {
            lock,
            mode: Mode::Read,
            try_for: None,
        })
        .chain([Action::Compute(500)])
        .chain(locks.iter().map(|&lock| Action::Release {
            lock,
            mode: Mode::Read,
        }));
    vec![round.collect::<Vec<_>>().repeat(20); 8]
}

/// Each thread hammers its own private lock 100 times.
fn private_lock_scripts(locks: &[Addr]) -> Vec<Vec<Action>> {
    locks
        .iter()
        .map(|&lock| {
            [
                Action::Acquire {
                    lock,
                    mode: Mode::Write,
                    try_for: None,
                },
                Action::Compute(40),
                Action::Release {
                    lock,
                    mode: Mode::Write,
                },
            ]
            .repeat(100)
        })
        .collect()
}

/// The ablation table: one row per (ablation, setting) cell, with each
/// cell's cycles relative to the first setting of its ablation.
pub fn ablations() -> Vec<Table> {
    let mut cells: Vec<(&str, String, u64)> = Vec::new();
    for (setting, direct) in [("direct", true), ("via_lrt", false)] {
        let mut cfg = MachineConfig::model_a(32);
        cfg.lcu_direct_transfer = direct;
        let cycles = micro_cycles(cfg, 16, 100);
        cells.push(("direct_transfer", setting.into(), cycles));
    }
    for (setting, on) in [("on", true), ("off", false)] {
        let mut cfg = MachineConfig::model_a(32);
        cfg.lcu_fast_reacquire = on;
        // Read-dominated: re-acquisition of read locks matters.
        let cycles = micro_cycles(cfg, 16, 10);
        cells.push(("fast_reacquire", setting.into(), cycles));
    }
    for timeout in [200u64, 1_000, 5_000] {
        // 8 cores, 16 threads: grants regularly land on preempted threads
        // and the timeout forwards them.
        let mut cfg = MachineConfig::model_a(8);
        cfg.grant_timeout = timeout;
        cfg.quantum = 20_000;
        let cycles = micro_cycles(cfg, 16, 100);
        cells.push(("grant_timeout", format!("timeout_{timeout}"), cycles));
    }
    for entries in [2usize, 8, 16] {
        let mut cfg = MachineConfig::model_a(8);
        cfg.lcu_entries = entries;
        let cycles = script_cycles(cfg, 12, multi_read_scripts);
        cells.push(("lcu_entries", format!("entries_{entries}"), cycles));
    }
    for (setting, on) in [("on", true), ("off", false)] {
        // Tiny LCUs force nonblocking requests; the reservation keeps them
        // from starving behind queue traffic.
        let mut cfg = MachineConfig::model_a(8);
        cfg.lcu_entries = 2;
        cfg.lcu_reservation = on;
        let cycles = micro_cycles(cfg, 8, 100);
        cells.push(("reservation", setting.into(), cycles));
    }
    for (setting, entries) in [("off", 0usize), ("entries_4", 4)] {
        let mut cfg = MachineConfig::model_a(8);
        cfg.flt_entries = entries;
        let cycles = script_cycles(cfg, 8, private_lock_scripts);
        cells.push(("flt", setting.into(), cycles));
    }

    let mut t = Table::new(
        format!("Ablations — LCU design choices, simulated cycles to completion (seed {SEED})"),
        &["ablation", "setting", "cycles", "vs first"],
    );
    let mut first = (None, 0);
    for (ablation, setting, cycles) in cells {
        if first.0 != Some(ablation) {
            first = (Some(ablation), cycles);
        }
        t.push(vec![
            ablation.to_string(),
            setting,
            cycles.to_string(),
            ratio(cycles as f64 / first.1 as f64),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_match_recorded_cycles() {
        let t = &ablations()[0];
        let got: Vec<(&str, &str, u64)> = t
            .rows
            .iter()
            .map(|r| (r[0].as_str(), r[1].as_str(), r[2].parse().unwrap()))
            .collect();
        assert_eq!(
            got,
            [
                ("direct_transfer", "direct", 174_070),
                ("direct_transfer", "via_lrt", 310_002),
                ("fast_reacquire", "on", 136_723),
                ("fast_reacquire", "off", 136_723),
                ("grant_timeout", "timeout_200", 214_184),
                ("grant_timeout", "timeout_1000", 254_442),
                ("grant_timeout", "timeout_5000", 5_365_484),
                ("lcu_entries", "entries_2", 51_210),
                ("lcu_entries", "entries_8", 55_294),
                ("lcu_entries", "entries_16", 60_556),
                ("reservation", "on", 174_070),
                ("reservation", "off", 174_070),
                ("flt", "off", 37_500),
                ("flt", "entries_4", 4_731),
            ]
        );
    }
}
