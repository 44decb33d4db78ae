//! The four workloads and the cells they run.
//!
//! A cell is one simulated run: a fresh [`World`] (cold modelled caches),
//! its threads, and the run loop to completion. Cells are built here from
//! the crates' public constructors, mirroring the harness executors
//! (`run_microbench`, `run_stm`, `run_app`, `run_chaos`) step for step —
//! including the always-on series collector and the chaos trace ring — so
//! that set-up can be timed apart from the run loop and, in the traced
//! run, each layer's entry points can be wrapped.
//!
//! Every workload is a closed loop: cells run back to back, and inside a
//! cell each simulated thread issues its next acquire only after its
//! previous release. Cell shapes are constants; the workload seed picks
//! each cell's world seed, and which fuzz cases `chaos-check` runs (each on
//! the world seed `chaossim` gives it: its fuzz seed).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use locksim_faults::{check_world, generate, ChaosRow, FaultDriver, FuzzConfig};
use locksim_harness::chaos::{backend_by_label, DEFAULT_QUIESCE};
use locksim_harness::{AppSel, BackendKind, ModelSel, StmVariant, StructSel};
use locksim_machine::{
    Alloc, LockBackend, MachineConfig, MetricsSnapshot, Program, RunExit, ThreadId, World,
};
use locksim_stm::{
    HashTable, ObjectSpace, Op, RbTree, SkipList, StmKind, TxShared, TxStats, TxStructure, TxThread,
};
use locksim_swlocks::SwAlg;
use locksim_trace::alloc;
use locksim_workloads::{
    CholeskyThread, CsThread, FluidConfig, FluidGrid, FluidThread, IterPool, RadiosityThread,
};

use crate::fingerprint::Fingerprint;
use crate::spans::{self, Leaf, TimedBackend, TimedProgram};

/// Critical sections per `handoff-hw` cell.
pub const HW_ITERS: u64 = 4_000;
/// Critical sections per `handoff-sw` cell.
pub const SW_ITERS: u64 = 3_000;
/// Transactions per thread in a `stm-apps` STM cell, by structure: the
/// skip list's long traversals get fewer so no cell dominates the pass.
const STM_TXNS: [u32; 3] = [25, 3, 25];
/// Replicas of each STM cell, each on its own world seed.
const STM_REPLICAS: u32 = 3;
/// Fuzzed cases per `chaos-check` pass.
pub const CHAOS_CASES: u64 = 1_600;
/// `chaos-check` draws its cases from the fuzz seeds `0..CHAOS_POOL`: the
/// stretch of the `chaossim` soak below the first generated plan that
/// fails validation (fuzz seed 2428).
pub const CHAOS_POOL: u64 = 2_400;

/// Trace-ring capacity of a chaos cell (the harness's `run_chaos` value:
/// the oracles replay the ring, so it must keep every lock event).
const CHAOS_TRACE_CAP: usize = 1 << 20;
/// Chaos worlds run the 4-core Model A machine, as in `run_chaos`.
const CHAOS_CORES: u32 = 4;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9 hardware-lock handoff cells.
    HandoffHw,
    /// Fig. 10 / `swrw` software-lock handoff cells.
    HandoffSw,
    /// Fig. 11–13 STM structures and application kernels.
    StmApps,
    /// Fuzzed fault-injection cases judged by the oracles.
    ChaosCheck,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::HandoffHw,
        Workload::HandoffSw,
        Workload::StmApps,
        Workload::ChaosCheck,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HandoffHw => "handoff-hw",
            Workload::HandoffSw => "handoff-sw",
            Workload::StmApps => "stm-apps",
            Workload::ChaosCheck => "chaos-check",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one cell simulates.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// The lock-transfer microbenchmark (`run_microbench`).
    Micro {
        /// Machine model.
        model: ModelSel,
        /// Lock backend.
        backend: BackendKind,
        /// Simulated threads.
        threads: usize,
        /// Percentage of write-mode acquires.
        write_pct: u32,
        /// Critical sections shared by the threads.
        iters: u64,
    },
    /// An STM structure benchmark (`run_stm`, Model A).
    Stm {
        /// STM system variant.
        variant: StmVariant,
        /// Transactional structure.
        structure: StructSel,
        /// Key range; the structure is populated to half of it.
        nodes: u64,
        /// Simulated threads.
        threads: usize,
        /// Transactions per thread.
        txns: u32,
        /// Percentage of read-only transactions.
        read_pct: u32,
    },
    /// An application kernel (`run_app`).
    App {
        /// Which kernel.
        app: AppSel,
        /// Lock backend.
        backend: BackendKind,
    },
    /// A fuzzed chaos case: `generate(fuzz)` run as `chaossim` runs it,
    /// on the world seed `fuzz`.
    Chaos {
        /// The fuzz seed the case is generated from.
        fuzz: u64,
    },
}

/// One cell: a label unique within its workload, the world seed, and the
/// shape.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable label, the key of the recorded fingerprints.
    pub label: String,
    /// World RNG seed.
    pub seed: u64,
    /// What the cell simulates.
    pub shape: Shape,
}

/// SplitMix64 finaliser: spreads `(seed, index)` into a world seed.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x632B_E59B_D9B4_E5B7);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `CHAOS_CASES` distinct fuzz seeds of `0..CHAOS_POOL` that workload
/// seed `seed` draws, in increasing order.
pub fn chaos_fuzz_seeds(seed: u64) -> Vec<u64> {
    let mut pool: Vec<u64> = (0..CHAOS_POOL).collect();
    for i in 0..CHAOS_CASES {
        let j = i + mix(seed, i) % (CHAOS_POOL - i);
        pool.swap(i as usize, j as usize);
    }
    pool.truncate(CHAOS_CASES as usize);
    pool.sort_unstable();
    pool
}

/// The cells of `workload` for workload seed `seed`, in run order.
pub fn cells(workload: Workload, seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    let mut push = |label: String, shape: Shape| {
        let idx = out.len() as u64;
        out.push(Cell {
            label,
            seed: mix(seed, idx),
            shape,
        });
    };
    match workload {
        Workload::HandoffHw => {
            for model in [ModelSel::A, ModelSel::B] {
                for backend in [BackendKind::Lcu, BackendKind::LcuFlt, BackendKind::Ssb] {
                    for write_pct in [100, 50, 10] {
                        for threads in [4usize, 8, 16, 32] {
                            push(
                                format!(
                                    "{}/{}/t{threads}/w{write_pct}",
                                    model.label(),
                                    backend.label()
                                ),
                                Shape::Micro {
                                    model,
                                    backend,
                                    threads,
                                    write_pct,
                                    iters: HW_ITERS,
                                },
                            );
                        }
                    }
                }
            }
        }
        Workload::HandoffSw => {
            let rw = [SwAlg::Mrsw, SwAlg::Bravo, SwAlg::Fissile];
            for write_pct in [0u32, 10, 100] {
                // MCS and TATAS are writer-only (read-mode acquires assert):
                // they join the 100% column only.
                let mut algs = rw.to_vec();
                if write_pct == 100 {
                    algs.extend([SwAlg::Mcs, SwAlg::Tatas]);
                }
                for alg in algs {
                    // 48 threads oversubscribe the 32 cores, so the
                    // scheduler's quantum and preemption path runs.
                    for threads in [8usize, 16, 48] {
                        let backend = BackendKind::Sw(alg);
                        push(
                            format!("A/{}/t{threads}/w{write_pct}", backend.label()),
                            Shape::Micro {
                                model: ModelSel::A,
                                backend,
                                threads,
                                write_pct,
                                iters: SW_ITERS,
                            },
                        );
                    }
                }
            }
        }
        Workload::StmApps => {
            for ((structure, nodes), txns) in [
                (StructSel::Rb, 1u64 << 12),
                (StructSel::Skip, 1 << 10),
                (StructSel::Hash, 1 << 14),
            ]
            .into_iter()
            .zip(STM_TXNS)
            {
                for variant in [
                    StmVariant::SwOnly,
                    StmVariant::Lcu,
                    StmVariant::Fraser,
                    StmVariant::Ssb,
                ] {
                    // Abort dynamics make an STM cell's work depend on its
                    // world seed; replicas on distinct seeds average it.
                    for rep in 0..STM_REPLICAS {
                        push(
                            format!("stm/{}/{}/r{rep}", structure.label(), variant.label()),
                            Shape::Stm {
                                variant,
                                structure,
                                nodes,
                                threads: 16,
                                txns,
                                read_pct: 75,
                            },
                        );
                    }
                }
            }
            for app in [AppSel::Fluidanimate, AppSel::Cholesky, AppSel::Radiosity] {
                for backend in [
                    BackendKind::Sw(SwAlg::Posix),
                    BackendKind::Lcu,
                    BackendKind::LcuFlt,
                    BackendKind::Ssb,
                ] {
                    push(
                        format!("app/{}/{}", app.label(), backend.label()),
                        Shape::App { app, backend },
                    );
                }
            }
        }
        Workload::ChaosCheck => {
            // Cases `chaossim` soaks, each on the world seed it gives them
            // (the fuzz seed); the workload seed picks which.
            for fuzz in chaos_fuzz_seeds(seed) {
                push(format!("chaos/f{fuzz}"), Shape::Chaos { fuzz });
            }
        }
    }
    for cell in &mut out {
        if let Shape::Chaos { fuzz } = cell.shape {
            cell.seed = fuzz;
        }
    }
    out
}

/// Everything one cell run produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The simulated fingerprint.
    pub fp: Fingerprint,
    /// A failed in-cell check (unfinished work, an `EXCLUSION` verdict).
    pub problem: Option<String>,
    /// Host nanoseconds in set-up (`World::new`, populate, `spawn`).
    pub setup_ns: u64,
    /// Host nanoseconds in the run loop (or the fault driver around it).
    pub run_ns: u64,
    /// Host nanoseconds of the whole cell.
    pub cell_ns: u64,
    /// End-of-run metrics snapshot.
    pub snap: MetricsSnapshot,
    /// Heap allocations inside the run loop.
    pub run_allocs: u64,
    /// Bytes allocated inside the run loop.
    pub run_alloc_bytes: u64,
    /// Trace-ring records kept (chaos cells).
    pub trace_records: u64,
    /// Trace-ring records dropped (chaos cells).
    pub trace_dropped: u64,
    /// Fault injections applied (chaos cells).
    pub injections: u64,
    /// Oracle violations (chaos cells).
    pub violations: u64,
    /// STM statistics (STM cells).
    pub stm: Option<TxStats>,
    /// The chaos case's generated plan did not validate, so it was
    /// refused without running.
    pub refused: bool,
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn backend(kind: BackendKind, traced: bool) -> Box<dyn LockBackend> {
    let b = kind.build();
    if traced {
        Box::new(TimedBackend::new(b, Leaf::for_backend(kind.label())))
    } else {
        b
    }
}

fn spawn(w: &mut World, prog: Box<dyn Program>, traced: bool) {
    if traced {
        w.spawn(Box::new(TimedProgram::new(prog)));
    } else {
        w.spawn(prog);
    }
}

fn stm_backend(v: StmVariant) -> BackendKind {
    match v {
        StmVariant::SwOnly => BackendKind::Sw(SwAlg::Mrsw),
        StmVariant::Lcu => BackendKind::Lcu,
        StmVariant::Ssb => BackendKind::Ssb,
        StmVariant::Fraser => BackendKind::Sw(SwAlg::Tatas),
    }
}

fn stm_kind(v: StmVariant) -> StmKind {
    match v {
        StmVariant::Fraser => StmKind::Fraser,
        _ => StmKind::LockBased,
    }
}

/// What set-up leaves for the run phase.
struct Prepared {
    world: World,
    /// Critical sections the cell must grant, when the shape fixes it.
    requested: Option<u64>,
    stm: Option<(Rc<RefCell<TxStats>>, u64)>,
}

fn setup(cell: &Cell, traced: bool) -> Prepared {
    match cell.shape {
        Shape::Micro {
            model,
            backend: kind,
            threads,
            write_pct,
            iters,
        } => {
            let mut cfg = model.config();
            if kind == BackendKind::LcuFlt {
                cfg.flt_entries = 4;
            }
            let mut w = World::new(cfg, backend(kind, traced), cell.seed);
            w.enable_series(0);
            let lock = w.mach().alloc().alloc_line();
            let data = w.mach().alloc().alloc_line();
            let pool = IterPool::new(iters);
            for _ in 0..threads {
                let prog = CsThread::new(lock, data, pool.clone(), write_pct);
                spawn(&mut w, Box::new(prog), traced);
            }
            Prepared {
                world: w,
                requested: Some(iters),
                stm: None,
            }
        }
        Shape::Stm {
            variant,
            structure,
            nodes,
            threads,
            txns,
            read_pct,
        } => {
            let mut w = World::new(
                ModelSel::A.config(),
                backend(stm_backend(variant), traced),
                cell.seed,
            );
            w.enable_series(0);
            let populate = spans::span("stm/populate");
            let mut alloc = Alloc::starting_at(1 << 40);
            let mut space = ObjectSpace::new();
            let mut st: Box<dyn TxStructure> = match structure {
                StructSel::Rb => Box::new(RbTree::new(&mut space, &mut alloc)),
                StructSel::Skip => Box::new(SkipList::new(&mut space, &mut alloc)),
                StructSel::Hash => {
                    let buckets = (nodes / 4).max(16) as usize;
                    Box::new(HashTable::new(&mut space, &mut alloc, buckets))
                }
            };
            // Populate to half capacity with every other key (as run_stm).
            let mut lvl_seed = cell.seed | 1;
            for i in 0..nodes / 2 {
                lvl_seed = lvl_seed.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                st.perform(
                    &mut space,
                    &mut alloc,
                    Op::Insert((i * 2) % nodes),
                    (lvl_seed % 4) + 1,
                );
            }
            drop(populate);
            let shared = TxShared::new(st, space, alloc);
            let stats = Rc::new(RefCell::new(TxStats::default()));
            for _ in 0..threads {
                let prog = TxThread::new(
                    stm_kind(variant),
                    shared.clone(),
                    stats.clone(),
                    txns,
                    read_pct,
                    nodes,
                );
                spawn(&mut w, Box::new(prog), traced);
            }
            Prepared {
                world: w,
                requested: None,
                stm: Some((stats, threads as u64 * u64::from(txns))),
            }
        }
        Shape::App { app, backend: kind } => {
            let mut cfg = MachineConfig::model_a(32);
            if kind == BackendKind::LcuFlt {
                cfg.flt_entries = 4;
            }
            let mut w = World::new(cfg, backend(kind, traced), cell.seed);
            w.enable_series(0);
            match app {
                AppSel::Fluidanimate => {
                    let fcfg = FluidConfig::default();
                    let fine = !matches!(kind, BackendKind::Sw(_));
                    let grid = FluidGrid::new(w.mach().alloc(), app.threads(), &fcfg, fine);
                    for t in 0..app.threads() {
                        let prog = FluidThread::new(grid.clone(), fcfg.clone(), t);
                        spawn(&mut w, Box::new(prog), traced);
                    }
                }
                AppSel::Cholesky => {
                    let lock = w.mach().alloc().alloc_line();
                    let tasks = Rc::new(RefCell::new(600));
                    for _ in 0..app.threads() {
                        let prog = CholeskyThread::new(lock, tasks.clone(), 20_000);
                        spawn(&mut w, Box::new(prog), traced);
                    }
                }
                AppSel::Radiosity => {
                    let locks: Rc<Vec<_>> = Rc::new(
                        (0..app.threads())
                            .map(|_| w.mach().alloc().alloc_line())
                            .collect(),
                    );
                    for t in 0..app.threads() {
                        let prog = RadiosityThread::new(locks.clone(), t, 400, 3);
                        spawn(&mut w, Box::new(prog), traced);
                    }
                }
            }
            Prepared {
                world: w,
                requested: None,
                stm: None,
            }
        }
        Shape::Chaos { .. } => unreachable!("chaos cells are set up by run_chaos_cell"),
    }
}

fn acquires(w: &World) -> Vec<u64> {
    (0..w.mach_ref().n_threads() as u32)
        .map(|i| w.mach_ref().thread_stats(ThreadId(i)).acquires)
        .collect()
}

/// Takes the end-of-run snapshots (metrics and series, as the harness's
/// `observe` does) under the `trace/snapshot` span.
fn snapshot(w: &World) -> MetricsSnapshot {
    let _s = spans::span("trace/snapshot");
    let snap = w.metrics_snapshot();
    std::hint::black_box(w.series_snapshot());
    snap
}

/// Runs one cell. `traced` wraps the backend and every program in the
/// span-recording delegates. Panics (a stall, a protocol assertion)
/// propagate to the caller.
pub fn run_cell(cell: &Cell, traced: bool) -> CellRun {
    if let Shape::Chaos { fuzz } = cell.shape {
        return run_chaos_cell(cell, fuzz, traced);
    }
    let t_cell = Instant::now();
    let t_setup = Instant::now();
    let prep = {
        let _s = spans::span("machine/setup");
        setup(cell, traced)
    };
    let setup_ns = ns(t_setup);
    let Prepared {
        world: mut w,
        requested,
        stm,
    } = prep;
    let _ = alloc::take_run_phase();
    let t_run = Instant::now();
    {
        let _s = spans::span("machine/run");
        w.run_to_completion();
    }
    let run_ns = ns(t_run);
    let run_alloc = alloc::take_run_phase().unwrap_or_default();
    let snap = snapshot(&w);
    let acq = acquires(&w);
    let granted = snap.counters.get("locks_granted");
    let mut problem = None;
    let total: u64 = acq.iter().sum();
    if total != granted {
        problem = Some(format!(
            "per-thread acquires sum {total} != {granted} granted"
        ));
    }
    if let Some(req) = requested {
        if granted != req {
            problem = Some(format!("granted {granted} != requested {req}"));
        }
    }
    for t in 0..w.mach_ref().n_threads() as u32 {
        if w.mach_ref().holding_count(ThreadId(t)) != 0 {
            problem = Some(format!("thread {t} finished holding a lock"));
        }
    }
    let stm_stats = stm.map(|(stats, want)| {
        let s = *stats.borrow();
        if s.commits != want {
            problem = Some(format!("{} commits != {want} transactions", s.commits));
        }
        s
    });
    let extra = stm_stats.map_or_else(String::new, |s| {
        let dissect: u64 = (0..w.mach_ref().n_threads() as u32)
            .map(|t| w.thread_dissection(ThreadId(t)).total())
            .sum();
        format!(
            "commits={},aborts={},tx_cycles={},dissect={dissect}",
            s.commits, s.aborts, s.total_cycles
        )
    });
    let fp = Fingerprint {
        label: cell.label.clone(),
        end_cycle: w.mach_ref().now().cycles(),
        events: snap.counters.get("evq_events"),
        granted,
        acquires: acq,
        verdict: "-".to_string(),
        extra,
    };
    CellRun {
        fp,
        problem,
        setup_ns,
        run_ns,
        cell_ns: ns(t_cell),
        snap,
        run_allocs: run_alloc.allocs,
        run_alloc_bytes: run_alloc.bytes_allocated,
        trace_records: 0,
        trace_dropped: 0,
        injections: 0,
        violations: 0,
        stm: stm_stats,
        refused: false,
    }
}

/// Runs one chaos case exactly as the harness's `run_chaos` does on
/// `generate(fuzz)`: trace ring on, fault driver with the quiescence
/// detector, then the oracles.
fn run_chaos_cell(cell: &Cell, fuzz: u64, traced: bool) -> CellRun {
    let t_cell = Instant::now();
    let case = {
        let _s = spans::span("faults/generate");
        generate(fuzz, &FuzzConfig::default())
    };
    let kind = backend_by_label(case.backend).expect("generated backend labels are known");
    if case
        .plan
        .validate(case.workload.threads, CHAOS_CORES)
        .is_err()
    {
        // `run_chaos` refuses a plan that does not validate without
        // running it; so does the benchmark (counted, not failed).
        return refused(cell, ns(t_cell));
    }
    let t_setup = Instant::now();
    let mut w = {
        let _s = spans::span("machine/setup");
        let mut cfg = MachineConfig::model_a(CHAOS_CORES as usize);
        if kind == BackendKind::LcuFlt {
            cfg.flt_entries = 4;
        }
        if case.workload.lrt_pressure {
            cfg.lrt_entries = 2;
            cfg.lrt_assoc = 2;
        }
        let mut w = World::new(cfg, backend(kind, traced), cell.seed);
        w.enable_series(0);
        w.enable_trace(CHAOS_TRACE_CAP);
        let lock = w.mach().alloc().alloc_line();
        let data = w.mach().alloc().alloc_line();
        let pool = IterPool::new(u64::from(case.workload.iters));
        for _ in 0..case.workload.threads {
            let prog = CsThread::new(lock, data, pool.clone(), case.workload.write_pct)
                .with_cs_compute(case.workload.cs_compute);
            spawn(&mut w, Box::new(prog), traced);
        }
        w
    };
    let setup_ns = ns(t_setup);
    let _ = alloc::take_run_phase();
    let t_run = Instant::now();
    let out = {
        let _s = spans::span("faults/drive");
        FaultDriver::new(case.plan.clone()).run_detected(&mut w, DEFAULT_QUIESCE)
    };
    let run_ns = ns(t_run);
    let run_alloc = alloc::take_run_phase().unwrap_or_default();
    let violations = {
        let _s = spans::span("faults/oracle");
        check_world(&mut w, &case.plan, &out.windows, out.end_cycle)
    };
    let snap = snapshot(&w);
    let verdict = ChaosRow::verdict_of(&out, &violations).to_string();
    let acq = acquires(&w);
    let granted = snap.counters.get("locks_granted");
    let requested = u64::from(case.workload.iters);
    let finished = out.exit == RunExit::AllFinished;
    // A plan may wedge the run (the detector then reports a DEADLOCK),
    // suspend a thread for good, or slow the run until its deadline cuts
    // it off; the run then ends short by the plan's design and the
    // oracles judge it, as `chaossim` does. Ending short for any other
    // reason is a stall.
    let suspended = (0..w.mach_ref().n_threads() as u32)
        .filter(|&t| w.mach_ref().is_suspended(ThreadId(t)))
        .count();
    let cut_by_deadline = out.exit == RunExit::TimeLimit && out.end_cycle >= case.plan.deadline;
    let total: u64 = acq.iter().sum();
    let explained = out.deadlock.is_some() || suspended > 0 || cut_by_deadline;
    let problem = if verdict == "EXCLUSION" {
        Some("EXCLUSION verdict".to_string())
    } else if total != granted {
        Some(format!(
            "per-thread acquires sum {total} != {granted} granted"
        ))
    } else if finished && granted != requested {
        Some(format!("granted {granted} != requested {requested}"))
    } else if !finished && !explained {
        Some(format!(
            "stalled at {granted} of {requested} critical sections with no deadlock \
             report, suspended thread or deadline (verdict {verdict}, exit {:?})",
            out.exit
        ))
    } else {
        None
    };
    let tracer = w.mach_ref().tracer();
    CellRun {
        fp: Fingerprint {
            label: cell.label.clone(),
            end_cycle: out.end_cycle,
            events: snap.counters.get("evq_events"),
            granted,
            acquires: acq,
            verdict,
            extra: String::new(),
        },
        problem,
        setup_ns,
        run_ns,
        cell_ns: ns(t_cell),
        run_allocs: run_alloc.allocs,
        run_alloc_bytes: run_alloc.bytes_allocated,
        trace_records: tracer.len() as u64,
        trace_dropped: tracer.dropped(),
        injections: out.injections_applied(),
        violations: violations.len() as u64,
        snap,
        stm: None,
        refused: false,
    }
}

/// The outcome of a chaos case whose plan was refused.
fn refused(cell: &Cell, cell_ns: u64) -> CellRun {
    CellRun {
        fp: Fingerprint {
            label: cell.label.clone(),
            end_cycle: 0,
            events: 0,
            granted: 0,
            acquires: Vec::new(),
            verdict: "REFUSED".to_string(),
            extra: String::new(),
        },
        problem: None,
        setup_ns: 0,
        run_ns: 0,
        cell_ns,
        snap: MetricsSnapshot {
            counters: Default::default(),
            hists: Vec::new(),
            sketches: Vec::new(),
        },
        run_allocs: 0,
        run_alloc_bytes: 0,
        trace_records: 0,
        trace_dropped: 0,
        injections: 0,
        violations: 0,
        stm: None,
        refused: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_seeds_follow_the_workload_seed() {
        for w in Workload::ALL {
            let a = cells(w, 1);
            let mut labels: Vec<_> = a.iter().map(|c| c.label.clone()).collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), a.len(), "{}", w.name());
            let b = cells(w, 2);
            assert_eq!(a.len(), b.len());
            let seeds = |cs: &[Cell]| cs.iter().map(|c| c.seed).collect::<Vec<_>>();
            assert_ne!(seeds(&a), seeds(&b), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn chaos_cells_are_distinct_pool_cases_on_their_fuzz_seed() {
        let cs = cells(Workload::ChaosCheck, 5);
        assert_eq!(cs.len() as u64, CHAOS_CASES);
        for pair in cs.windows(2) {
            assert!(pair[0].seed < pair[1].seed);
        }
        for c in &cs {
            assert!(matches!(c.shape, Shape::Chaos { fuzz } if fuzz == c.seed));
            assert!(c.seed < CHAOS_POOL);
        }
    }

    #[test]
    fn sw_cells_oversubscribe_the_cores() {
        let over = cells(Workload::HandoffSw, 0)
            .into_iter()
            .filter(|c| matches!(c.shape, Shape::Micro { threads, .. } if threads > 32))
            .count();
        assert!(over > 0);
    }
}
