//! The software-lock [`LockBackend`]: routes machine events into the
//! per-algorithm state machines.

use locksim_engine::stats::Counters;
use locksim_engine::Cycles;
use locksim_machine::{Addr, CoreId, LineAddr, LockBackend, Mach, Mode, ThreadId};

use crate::state::{OpKind, Phase, Step, SwState, TimerPurpose};
use crate::{bravo, fissile, mcs, mrsw, tas};

/// Which software lock algorithm the backend runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwAlg {
    /// Test-and-set spin lock.
    Tas,
    /// Test-and-test-and-set spin lock.
    Tatas,
    /// Mellor-Crummey–Scott queue lock (mutual exclusion only).
    Mcs,
    /// Reader-writer queue lock with a shared reader counter.
    Mrsw,
    /// Adaptive mutex (spin-then-park TATAS), the "posix" baseline.
    Posix,
    /// BRAVO-style biased reader-writer lock: readers publish into a
    /// global visible-readers table; writers revoke via the underlying
    /// MRSW lock (Dice & Kogan, ATC '19).
    Bravo,
    /// Fissile-style reader-writer lock: an inner MCS core serializing
    /// writers plus an outer lock word aggregating readers (Dice &
    /// Kogan, 2020).
    Fissile,
}

impl SwAlg {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            SwAlg::Tas => "tas",
            SwAlg::Tatas => "tatas",
            SwAlg::Mcs => "mcs",
            SwAlg::Mrsw => "mrsw",
            SwAlg::Posix => "posix",
            SwAlg::Bravo => "bravo",
            SwAlg::Fissile => "fissile",
        }
    }
}

/// Software-lock backend. See the crate docs.
pub struct SwLockBackend {
    alg: SwAlg,
    st: SwState,
}

impl std::fmt::Debug for SwLockBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwLockBackend")
            .field("alg", &self.alg)
            .finish()
    }
}

impl SwLockBackend {
    /// Creates a backend running `alg`.
    pub fn new(alg: SwAlg) -> Self {
        SwLockBackend {
            alg,
            st: SwState::new(alg),
        }
    }

    /// Re-reads whatever a waiting thread spins on (fresh watch included).
    fn redrive(&mut self, m: &mut Mach, t: ThreadId) {
        let Some(tsm) = self.st.threads.get(&t) else {
            return;
        };
        match tsm.phase {
            Phase::TatasWait => {
                let lock = tsm.lock;
                if let Some(x) = self.st.threads.get_mut(&t) {
                    x.phase = Phase::TatasRead;
                }
                crate::state::read(m, t, lock);
            }
            Phase::McsSpinWait | Phase::McsRelSpinWait => mcs::redrive(&mut self.st, m, t),
            Phase::MrswRWait | Phase::MrswWWaitRdr | Phase::MrswWRelSpinWait => {
                mrsw::redrive(&mut self.st, m, t)
            }
            Phase::BravoWScanWait => bravo::redrive(&mut self.st, m, t),
            Phase::FisRWait | Phase::FisWWait => fissile::redrive(&mut self.st, m, t),
            _ => {}
        }
    }

    fn dispatch(&mut self, m: &mut Mach, t: ThreadId, step: Step) {
        let Some(tsm) = self.st.threads.get(&t) else {
            return;
        };
        match tsm.phase {
            Phase::TasRmw
            | Phase::TasUndo
            | Phase::TatasRead
            | Phase::TatasWait
            | Phase::TatasRmw
            | Phase::PosixParked
            | Phase::SimpleRelStore => {
                let posix = self.alg == SwAlg::Posix;
                tas::advance(&mut self.st, m, t, step, posix);
            }
            Phase::McsInit
            | Phase::McsSwap
            | Phase::McsStoreLocked
            | Phase::McsLinkPred
            | Phase::McsSpinRead
            | Phase::McsSpinWait
            | Phase::McsRelReadNext
            | Phase::McsRelCas
            | Phase::McsRelSpinRead
            | Phase::McsRelSpinWait
            | Phase::McsRelUnlock => mcs::advance(&mut self.st, m, t, step),
            Phase::BravoRReadBias
            | Phase::BravoRPublish
            | Phase::BravoRRecheckBias
            | Phase::BravoRUndo
            | Phase::BravoRRelClear
            | Phase::BravoRSetBias
            | Phase::BravoWReadBias
            | Phase::BravoWClearBias
            | Phase::BravoWScanRead
            | Phase::BravoWScanWait => bravo::advance(&mut self.st, m, t, step),
            Phase::FisRInc
            | Phase::FisRDec
            | Phase::FisRWaitCheck
            | Phase::FisRWait
            | Phase::FisRRelDec
            | Phase::FisWSetBit
            | Phase::FisWReadWord
            | Phase::FisWWait
            | Phase::FisWRelClear => fissile::advance(&mut self.st, m, t, step),
            _ => mrsw::advance(&mut self.st, m, t, step),
        }
    }
}

impl LockBackend for SwLockBackend {
    fn name(&self) -> &'static str {
        self.alg.label()
    }

    fn on_acquire(
        &mut self,
        m: &mut Mach,
        t: ThreadId,
        lock: Addr,
        mode: Mode,
        try_for: Option<Cycles>,
    ) {
        assert!(
            !self.st.threads.contains_key(&t),
            "{t:?} already mid-operation"
        );
        if mode == Mode::Read {
            assert!(
                matches!(self.alg, SwAlg::Mrsw | SwAlg::Bravo | SwAlg::Fissile),
                "{} does not support read locking; use a reader-writer alg",
                self.alg.label()
            );
        }
        if try_for.is_some() {
            assert!(
                matches!(self.alg, SwAlg::Tas | SwAlg::Tatas | SwAlg::Posix),
                "{} does not support trylock (no queue-lock trylock exists)",
                self.alg.label()
            );
        }
        self.st
            .threads
            .insert(t, tas::new_tsm(lock, mode, OpKind::Acquire));
        if let Some(budget) = try_for {
            self.st.arm_abort(m, t, budget.max(1));
        }
        match (self.alg, mode) {
            (SwAlg::Tas, _) => tas::start_acquire(&mut self.st, m, t, false),
            (SwAlg::Tatas | SwAlg::Posix, _) => tas::start_acquire(&mut self.st, m, t, true),
            (SwAlg::Mcs, _) => mcs::start_acquire(&mut self.st, m, t),
            (SwAlg::Mrsw, Mode::Read) => mrsw::start_acquire_read(&mut self.st, m, t),
            (SwAlg::Bravo, Mode::Read) => bravo::start_acquire_read(&mut self.st, m, t),
            (SwAlg::Fissile, Mode::Read) => fissile::start_acquire_read(&mut self.st, m, t),
            (SwAlg::Mrsw | SwAlg::Bravo | SwAlg::Fissile, Mode::Write) => {
                mcs::start_acquire(&mut self.st, m, t)
            }
        }
    }

    fn on_release(&mut self, m: &mut Mach, t: ThreadId, lock: Addr, mode: Mode) {
        assert!(
            !self.st.threads.contains_key(&t),
            "{t:?} already mid-operation"
        );
        // The critical section ends here; record it before the release's
        // memory traffic races the next owner's grant messages.
        self.st
            .checker
            .on_release_traced(lock, t, mode, m.tracer(), m.lockstat());
        self.st
            .threads
            .insert(t, tas::new_tsm(lock, mode, OpKind::Release));
        match (self.alg, mode) {
            (SwAlg::Tas | SwAlg::Tatas | SwAlg::Posix, _) => tas::start_release(&mut self.st, m, t),
            (SwAlg::Mcs, _) => mcs::start_release(&mut self.st, m, t),
            (SwAlg::Mrsw, Mode::Read) => mrsw::start_release_read(&mut self.st, m, t),
            (SwAlg::Mrsw | SwAlg::Bravo, Mode::Write) => {
                mrsw::start_release_write(&mut self.st, m, t)
            }
            (SwAlg::Bravo, Mode::Read) => bravo::start_release_read(&mut self.st, m, t),
            (SwAlg::Fissile, Mode::Read) => fissile::start_release_read(&mut self.st, m, t),
            (SwAlg::Fissile, Mode::Write) => fissile::start_release_write(&mut self.st, m, t),
        }
    }

    fn on_mem_value(&mut self, m: &mut Mach, t: ThreadId, value: u64) {
        self.dispatch(m, t, Step::Value(value));
    }

    fn on_line_invalidated(&mut self, m: &mut Mach, t: ThreadId, _line: LineAddr) {
        // A wake can reach a thread that was preempted after arming its
        // watch (watches stay registered at the old core). Acting on it
        // would advance the spin machine into a mid-read phase that
        // neither the fallback timer nor the reschedule re-drive covers —
        // the lost-grant wedge of `tests/corpus/s00025_mrsw_none.txt`.
        // A preempted thread executes nothing: drop the wake and let
        // `on_thread_scheduled` re-drive the spin loop with a fresh read.
        if !m.is_scheduled(t) {
            self.st.counters.incr("sw_wakes_dropped_offcore");
            return;
        }
        // A real invalidation means the line the spin watches changed —
        // the wait is being served, not futile.
        if let Some(tsm) = self.st.threads.get_mut(&t) {
            tsm.futile = 0;
        }
        self.dispatch(m, t, Step::Wake);
    }

    fn on_timer(&mut self, m: &mut Mach, token: u64) {
        let Some((t, purpose)) = self.st.timers.remove(&token) else {
            return;
        };
        match purpose {
            TimerPurpose::Park => self.dispatch(m, t, Step::Timer),
            TimerPurpose::Fallback(phase) => {
                // Only meaningful if the thread is still stuck in the same
                // wait phase (the wake may have been lost to a message
                // race); otherwise it is a stale no-op.
                let stuck = self
                    .st
                    .threads
                    .get(&t)
                    .is_some_and(|tsm| tsm.phase == phase);
                if stuck {
                    // Off-core: the thread cannot re-read; the re-drive on
                    // its next `on_thread_scheduled` covers it.
                    if !m.is_scheduled(t) {
                        return;
                    }
                    self.st.counters.incr("sw_fallback_redrives");
                    if let Some(lock) = self.st.threads.get(&t).map(|tsm| tsm.lock) {
                        m.lockstat_bump(lock, "sw_fallback_redrives");
                    }
                    let futile = {
                        let tsm = self.st.threads.get_mut(&t).expect("stuck checked");
                        tsm.futile += 1;
                        tsm.futile
                    };
                    if futile >= crate::state::YIELD_AFTER_FUTILE && m.has_ready_threads() {
                        // Stuck several full fallback periods with threads
                        // waiting for a core: donate the timeslice
                        // (spin-then-yield) so a preempted predecessor —
                        // possibly the thread this spin is waiting on —
                        // gets a core well before the next quantum tick.
                        // The re-drive runs when this thread is
                        // rescheduled.
                        self.st.counters.incr("sw_spin_yields");
                        m.request_yield(t);
                    } else {
                        self.redrive(m, t);
                    }
                }
            }
            TimerPurpose::Abort => {
                // Only meaningful if the thread is still acquiring.
                let acquiring = self
                    .st
                    .threads
                    .get(&t)
                    .is_some_and(|tsm| tsm.op == OpKind::Acquire);
                if acquiring {
                    tas::abort(&mut self.st, m, t);
                }
            }
        }
    }

    fn on_thread_scheduled(&mut self, m: &mut Mach, t: ThreadId, _core: CoreId) {
        // Watches do not survive preemption/migration: re-drive any
        // spin-wait phase with a fresh read.
        self.redrive(m, t);
    }

    fn on_thread_descheduled(&mut self, m: &mut Mach, t: ThreadId) {
        // A software lock has no hardware agent acting for an off-core
        // thread: its operation simply freezes, leaving queue successors
        // blocked until it runs again. Count the exposure so fault reports
        // can attribute the resulting stalls.
        if let Some(tsm) = self.st.threads.get(&t) {
            let lock = tsm.lock;
            self.st.counters.incr("sw_descheduled_midop");
            m.lockstat_bump(lock, "sw_descheduled_midop");
        }
    }

    fn counters(&self) -> Counters {
        self.st.counters.clone()
    }

    fn debug_state(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut threads: Vec<_> = self.st.threads.iter().collect();
        threads.sort_unstable_by_key(|&(t, _)| t);
        for (t, tsm) in threads {
            writeln!(
                out,
                "{t:?}: lock={} mode={:?} op={:?} phase={:?} qnode={} scratch={:#x} spins={}",
                tsm.lock, tsm.mode, tsm.op, tsm.phase, tsm.qnode, tsm.scratch, tsm.spins
            )
            .ok();
        }
        out
    }
}
