//! Workspace-level integration tests: every lock implementation, the STM,
//! and the workloads exercised through the public facade, with the
//! paper's qualitative results asserted as invariants.

use std::cell::RefCell;
use std::rc::Rc;

use locksim::core::LcuBackend;
use locksim::harness::{
    run_app, run_microbench, run_stm, AppSel, BackendKind, ModelSel, StmVariant, StructSel,
};
use locksim::machine::testing::ScriptProgram;
use locksim::machine::{Action, LockBackend, MachineConfig, Mode, World};
use locksim::ssb::SsbBackend;
use locksim::stm::{
    ObjectSpace, Op, RbTree, SkipList, StmKind, TxShared, TxStats, TxStructure, TxThread,
};
use locksim::swlocks::{SwAlg, SwLockBackend};

type BackendFactory = Box<dyn Fn() -> Box<dyn LockBackend>>;

fn all_backends() -> Vec<(&'static str, BackendFactory)> {
    vec![
        (
            "lcu",
            Box::new(|| Box::new(LcuBackend::new()) as Box<dyn LockBackend>),
        ),
        (
            "ssb",
            Box::new(|| Box::new(SsbBackend::new()) as Box<dyn LockBackend>),
        ),
        (
            "mcs",
            Box::new(|| Box::new(SwLockBackend::new(SwAlg::Mcs)) as Box<dyn LockBackend>),
        ),
        (
            "mrsw",
            Box::new(|| Box::new(SwLockBackend::new(SwAlg::Mrsw)) as Box<dyn LockBackend>),
        ),
        (
            "bravo",
            Box::new(|| Box::new(SwLockBackend::new(SwAlg::Bravo)) as Box<dyn LockBackend>),
        ),
        (
            "fissile",
            Box::new(|| Box::new(SwLockBackend::new(SwAlg::Fissile)) as Box<dyn LockBackend>),
        ),
        (
            "tatas",
            Box::new(|| Box::new(SwLockBackend::new(SwAlg::Tatas)) as Box<dyn LockBackend>),
        ),
        (
            "tas",
            Box::new(|| Box::new(SwLockBackend::new(SwAlg::Tas)) as Box<dyn LockBackend>),
        ),
        (
            "posix",
            Box::new(|| Box::new(SwLockBackend::new(SwAlg::Posix)) as Box<dyn LockBackend>),
        ),
    ]
}

/// Every backend provides mutual exclusion for the same workload: the
/// interleaved non-atomic counter update never loses increments.
#[test]
fn every_backend_provides_mutual_exclusion() {
    for (name, make) in all_backends() {
        let mut w = World::new(MachineConfig::model_a(8), make(), 9);
        let lock = w.mach().alloc().alloc_line();
        let data = w.mach().alloc().alloc_line();
        for _ in 0..8 {
            let mut script = Vec::new();
            for _ in 0..5 {
                script.push(Action::Acquire {
                    lock,
                    mode: Mode::Write,
                    try_for: None,
                });
                script.push(Action::Read(data));
                script.push(Action::Compute(40));
                // ScriptProgram ignores outcomes, so increment through an
                // atomic instead of read+write (the lock still serializes).
                script.push(Action::Rmw(data, locksim::machine::RmwOp::FetchAdd(1)));
                script.push(Action::Release {
                    lock,
                    mode: Mode::Write,
                });
            }
            w.spawn(Box::new(ScriptProgram::new(script)));
        }
        w.run_to_completion();
        assert_eq!(w.mach().mem_peek(data), 40, "{name} lost updates");
        assert_eq!(
            w.report_counters().get("locks_granted"),
            40,
            "{name} grant count"
        );
    }
}

/// Reader-writer capable backends let readers overlap.
#[test]
fn rw_backends_allow_reader_concurrency() {
    for (name, make) in [
        ("lcu", Box::new(LcuBackend::new()) as Box<dyn LockBackend>),
        ("ssb", Box::new(SsbBackend::new())),
        ("mrsw", Box::new(SwLockBackend::new(SwAlg::Mrsw))),
        ("bravo", Box::new(SwLockBackend::new(SwAlg::Bravo))),
        ("fissile", Box::new(SwLockBackend::new(SwAlg::Fissile))),
    ] {
        let mut w = World::new(MachineConfig::model_a(8), make, 10);
        let lock = w.mach().alloc().alloc_line();
        for _ in 0..6 {
            w.spawn(Box::new(ScriptProgram::new(vec![
                Action::Acquire {
                    lock,
                    mode: Mode::Read,
                    try_for: None,
                },
                Action::Compute(25_000),
                Action::Release {
                    lock,
                    mode: Mode::Read,
                },
            ])));
        }
        w.run_to_completion();
        let t = w.mach().now().cycles();
        assert!(t < 3 * 25_000, "{name}: readers serialized ({t} cycles)");
    }
}

/// Figure 9's headline: the LCU's critical sections are cheaper than the
/// SSB's under mutual exclusion on Model A.
#[test]
fn lcu_beats_ssb_on_model_a_writes() {
    let lcu = run_microbench(ModelSel::A, BackendKind::Lcu, 16, 100, 2_000, 42);
    let ssb = run_microbench(ModelSel::A, BackendKind::Ssb, 16, 100, 2_000, 42);
    assert!(
        lcu.cycles_per_cs < ssb.cycles_per_cs * 0.85,
        "lcu {:.0} !< ssb {:.0}",
        lcu.cycles_per_cs,
        ssb.cycles_per_cs
    );
}

/// Figure 10's headline: the LCU beats the MCS queue lock by more than 2x
/// under contention, and stays graceful past the core count while MCS
/// degrades dramatically.
#[test]
fn lcu_beats_mcs_and_survives_oversubscription() {
    let lcu32 = run_microbench(ModelSel::A, BackendKind::Lcu, 32, 100, 2_000, 42);
    let mcs32 = run_microbench(ModelSel::A, BackendKind::Sw(SwAlg::Mcs), 32, 100, 2_000, 42);
    assert!(mcs32.cycles_per_cs > 2.0 * lcu32.cycles_per_cs);

    let lcu40 = run_microbench(ModelSel::A, BackendKind::Lcu, 40, 100, 2_000, 42);
    let mcs40 = run_microbench(ModelSel::A, BackendKind::Sw(SwAlg::Mcs), 40, 100, 2_000, 42);
    // LCU degrades gracefully (< 2x); MCS hits the preemption anomaly (> 2x).
    assert!(lcu40.cycles_per_cs < 2.0 * lcu32.cycles_per_cs);
    assert!(mcs40.cycles_per_cs > 2.0 * mcs32.cycles_per_cs);
}

/// Figure 12's headline: lock-based STM on the LCU beats software RW locks
/// at 16 threads with 75% read-only transactions.
#[test]
fn stm_lcu_speedup_over_sw_only() {
    let sw = run_stm(
        ModelSel::A,
        StmVariant::SwOnly,
        StructSel::Rb,
        512,
        16,
        20,
        75,
        42,
    );
    let lcu = run_stm(
        ModelSel::A,
        StmVariant::Lcu,
        StructSel::Rb,
        512,
        16,
        20,
        75,
        42,
    );
    let speedup = sw.cycles_per_tx / lcu.cycles_per_tx;
    assert!(speedup > 1.3, "speedup only {speedup:.2}x");
}

/// The STM produces identical logical structure state across lock
/// implementations when the schedule-independent checks are applied.
#[test]
fn stm_structures_stay_consistent_across_backends() {
    for variant in [
        StmVariant::SwOnly,
        StmVariant::Lcu,
        StmVariant::Ssb,
        StmVariant::Fraser,
    ] {
        let kind = match variant {
            StmVariant::Fraser => StmKind::Fraser,
            _ => StmKind::LockBased,
        };
        let backend: Box<dyn LockBackend> = match variant {
            StmVariant::SwOnly => Box::new(SwLockBackend::new(SwAlg::Mrsw)),
            StmVariant::Lcu => Box::new(LcuBackend::new()),
            StmVariant::Ssb => Box::new(SsbBackend::new()),
            StmVariant::Fraser => Box::new(SwLockBackend::new(SwAlg::Tatas)),
        };
        let mut w = World::new(MachineConfig::model_a(8), backend, 11);
        let mut alloc = locksim::machine::Alloc::starting_at(1 << 40);
        let mut space = ObjectSpace::new();
        let mut sl = SkipList::new(&mut space, &mut alloc);
        for k in 0..64 {
            sl.perform(&mut space, &mut alloc, Op::Insert(k * 2), (k % 4) + 1);
        }
        let shared = TxShared::new(Box::new(sl), space, alloc);
        let stats = Rc::new(RefCell::new(TxStats::default()));
        for _ in 0..8 {
            w.spawn(Box::new(TxThread::new(
                kind,
                shared.clone(),
                stats.clone(),
                12,
                50,
                128,
            )));
        }
        w.run_to_completion();
        shared.structure.borrow().check_invariants();
        assert_eq!(stats.borrow().commits, 8 * 12, "{}", variant.label());
    }
}

/// Figure 13's shape: the LCU helps the fine-grain fluidanimate kernel,
/// is neutral-ish on compute-bound cholesky, and loses slightly on the
/// biased radiosity queues.
#[test]
fn application_kernels_follow_paper_pattern() {
    let fluid_posix = run_app(AppSel::Fluidanimate, BackendKind::Sw(SwAlg::Posix), 5);
    let fluid_lcu = run_app(AppSel::Fluidanimate, BackendKind::Lcu, 5);
    assert!(fluid_lcu < fluid_posix, "LCU should win fluidanimate");

    let rad_posix = run_app(AppSel::Radiosity, BackendKind::Sw(SwAlg::Posix), 5);
    let rad_lcu = run_app(AppSel::Radiosity, BackendKind::Lcu, 5);
    assert!(
        rad_lcu as f64 > rad_posix as f64 * 0.95,
        "radiosity should not favour the LCU much"
    );

    let chol_posix = run_app(AppSel::Cholesky, BackendKind::Sw(SwAlg::Posix), 5);
    let chol_lcu = run_app(AppSel::Cholesky, BackendKind::Lcu, 5);
    let ratio = chol_posix as f64 / chol_lcu as f64;
    assert!(
        (0.9..1.15).contains(&ratio),
        "cholesky should be insensitive, ratio {ratio:.2}"
    );
}

/// Whole-stack determinism: an STM run over the facade reproduces its
/// cycle count exactly.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let mut w = World::new(MachineConfig::model_b(), Box::new(LcuBackend::new()), 77);
        let mut alloc = locksim::machine::Alloc::starting_at(1 << 40);
        let mut space = ObjectSpace::new();
        let mut tree = RbTree::new(&mut space, &mut alloc);
        for k in 0..64 {
            tree.perform(&mut space, &mut alloc, Op::Insert(k), 0);
        }
        let shared = TxShared::new(Box::new(tree), space, alloc);
        let stats = Rc::new(RefCell::new(TxStats::default()));
        for _ in 0..12 {
            w.spawn(Box::new(TxThread::new(
                StmKind::LockBased,
                shared.clone(),
                stats.clone(),
                10,
                75,
                128,
            )));
        }
        w.run_to_completion();
        let aborts = stats.borrow().aborts;
        (w.mach().now().cycles(), aborts)
    };
    assert_eq!(run(), run());
}

/// Splits `ThreadId(n)` out of a stall-dump line.
fn dump_tid(line: &str) -> u32 {
    let s = &line[line.find("ThreadId(").expect("thread id") + 9..];
    s[..s.find(')').expect("closing paren")]
        .parse()
        .expect("numeric thread id")
}

#[test]
fn stall_dumps_are_deterministic_and_key_sorted() {
    // Two identically built worlds stopped mid-contention must dump the
    // same backend state, each map's entries in key order and the hardware
    // backends' in-flight wire messages in ticket order.
    let dump = |backend: &dyn Fn() -> Box<dyn LockBackend>| {
        let mut w = World::new(MachineConfig::model_a(16), backend(), 5);
        let locks = [w.mach().alloc().alloc_line(), w.mach().alloc().alloc_line()];
        for i in 0..12 {
            // A private lock held throughout keeps every thread in `held`.
            let own = w.mach().alloc().alloc_line();
            let mut script = vec![Action::Acquire {
                lock: own,
                mode: Mode::Write,
                try_for: None,
            }];
            for k in 0..20 {
                let lock = locks[(i + k) % 2];
                let mode = if (i + k) % 4 == 0 {
                    Mode::Write
                } else {
                    Mode::Read
                };
                script.push(Action::Acquire {
                    lock,
                    mode,
                    try_for: None,
                });
                script.push(Action::Compute(150));
                script.push(Action::Release { lock, mode });
            }
            script.push(Action::Release {
                lock: own,
                mode: Mode::Write,
            });
            w.spawn(Box::new(ScriptProgram::new(script)));
        }
        w.run_until_cycle(6_000);
        w.backend_debug()
    };
    for (name, make) in all_backends() {
        if !matches!(name, "lcu" | "ssb" | "mrsw" | "bravo") {
            continue;
        }
        let a = dump(&*make);
        assert_eq!(a, dump(&*make), "{name}: stall dump differs across worlds");
        let lines: Vec<&str> = a.lines().collect();
        // (thread, lock address) — `held` lines name the lock third.
        let keys = |prefix: &str| -> Vec<(u32, u64)> {
            lines
                .iter()
                .filter(|l| l.starts_with(prefix))
                .map(|l| {
                    let addr = l
                        .split_whitespace()
                        .nth(2)
                        .and_then(|f| f.strip_prefix("A0x"))
                        .and_then(|f| u64::from_str_radix(f.trim_end_matches(':'), 16).ok());
                    (dump_tid(l), addr.unwrap_or(0))
                })
                .collect()
        };
        let sections: &[&str] = match name {
            "lcu" => &["req ", "held "],
            "ssb" => &["req "],
            _ => &["ThreadId("],
        };
        for prefix in sections {
            let k = keys(prefix);
            assert!(k.len() >= 2, "{name}: too few `{prefix}` entries:\n{a}");
            assert!(
                k.windows(2).all(|p| p[0] < p[1]),
                "{name}: `{prefix}` entries out of key order:\n{a}"
            );
        }
        if matches!(name, "lcu" | "ssb") {
            let tickets: Vec<u32> = lines
                .iter()
                .filter_map(|l| l.strip_prefix("wire "))
                .map(|l| l[..l.find(':').expect("ticket")].parse().expect("ticket"))
                .collect();
            assert!(
                !tickets.is_empty(),
                "{name}: no wire messages in flight:\n{a}"
            );
            assert!(
                tickets.windows(2).all(|p| p[0] < p[1]),
                "{name}: wire messages out of ticket order:\n{a}"
            );
        }
    }
}

#[test]
fn generated_fault_plans_validate() {
    // The fuzzer promises valid plans by construction; a resume must not
    // fire before a later timed suspend of its thread (seed 2428 did).
    let cfg = locksim::faults::FuzzConfig::default();
    for seed in 0..20_000 {
        let case = locksim::faults::generate(seed, &cfg);
        if let Err(e) = case.plan.validate(case.workload.threads, cfg.n_cores) {
            panic!(
                "seed {seed}: generated plan refused: {e}\n{}",
                case.plan.format()
            );
        }
    }
}
