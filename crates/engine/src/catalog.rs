//! The metrics catalog: every counter and latency histogram the simulator
//! reports, declared once, grouped by layer, with a one-line description.
//!
//! Each layer is a fieldless enum whose variants index that layer's
//! [`Tally`](crate::stats::Tally), so a bump is an array index plus a
//! "touched" bit — no hashing, no string compare — and a misspelt name is a
//! compile error rather than a silently dropped report row. The rendered
//! name of a variant is the string next to it; the report bag
//! ([`Counters`](crate::stats::Counters)) lists counters in name order,
//! whatever order they are declared in here.
//!
//! To add a counter, add a variant to its layer with a one-line doc comment
//! and its rendered name, then bump it where the event happens. A layer
//! holds at most 64 counters (the width of its touched mask).

/// One layer's slice of the catalog (implemented by the `catalog!` enums).
pub trait Layer: Copy + 'static {
    /// Offset of this layer's first counter in the global catalog.
    const BASE: usize;
    /// Number of counters in this layer.
    const LEN: usize;
    /// Per-owner storage: one `u64` per counter of this layer.
    type Slots: AsRef<[u64]> + AsMut<[u64]> + std::fmt::Debug;
    /// All-zero storage.
    const ZERO: Self::Slots;
    /// This counter's index within its layer.
    fn index(self) -> usize;
}

/// A counter's id in the global catalog (any layer's variant converts into
/// one with `.into()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctr(u16);

impl<L: Layer> From<L> for Ctr {
    #[inline]
    fn from(c: L) -> Ctr {
        Ctr((L::BASE + c.index()) as u16)
    }
}

impl Ctr {
    /// The id's position in the global catalog.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// The rendered name.
    pub fn name(self) -> &'static str {
        NAMES[self.index()]
    }

    /// Every catalog counter, in name order.
    pub fn by_name() -> impl Iterator<Item = Ctr> {
        BY_NAME.iter().map(|&i| Ctr(i))
    }

    /// The counter rendered as `name`, if the catalog has one.
    pub fn from_name(name: &str) -> Option<Ctr> {
        BY_NAME
            .binary_search_by(|&i| NAMES[i as usize].cmp(name))
            .ok()
            .map(|k| Ctr(BY_NAME[k]))
    }
}

impl std::fmt::Display for Ctr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Declares the layers: one enum per layer, each variant with exactly one
/// doc line, plus the global name table in declaration order.
macro_rules! catalog {
    ($(
        $(#[doc = $ldoc:literal])*
        $layer:ident {
            $(#[doc = $doc:literal] $var:ident = $name:literal,)+
        }
    )+) => {
        $(
            $(#[doc = $ldoc])*
            #[derive(Debug, Clone, Copy, PartialEq, Eq)]
            pub enum $layer {
                $(#[doc = $doc] $var,)+
            }

            impl $layer {
                const COUNT: usize = [$($name),+].len();
            }

            const _: () = assert!($layer::COUNT <= 64, "a layer's touched mask is 64 bits");
        )+

        catalog!(@base 0; $($layer)+);

        /// Number of counters in the whole catalog.
        pub const TOTAL: usize = 0 $(+ $layer::COUNT)+;
        const NAMES: [&str; TOTAL] = [$($($name,)+)+];
    };
    (@base $base:expr;) => {};
    (@base $base:expr; $layer:ident $($rest:ident)*) => {
        impl Layer for $layer {
            const BASE: usize = $base;
            const LEN: usize = $layer::COUNT;
            type Slots = [u64; $layer::COUNT];
            const ZERO: Self::Slots = [0; $layer::COUNT];
            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }
        catalog!(@base $base + $layer::COUNT; $($rest)*);
    };
}

catalog! {
    /// Machine glue: lock outcomes, wire and network messages, watches,
    /// scheduling. Counted by `Mach` into its metrics registry.
    Machine {
        /// Acquires that ended in a grant, all backends.
        LocksGranted = "locks_granted",
        /// Trylocks that gave up.
        LocksFailed = "locks_failed",
        /// Backend protocol messages sent with `send_wire`.
        BackendWireMsgs = "backend_wire_msgs",
        /// Network sends that the injected wire fault delayed.
        WireFaultDelays = "wire_fault_delays",
        /// Control-class network messages.
        NetControlMsgs = "net_control_msgs",
        /// Data-class network messages.
        NetDataMsgs = "net_data_msgs",
        /// Line watches dropped because the thread was off-core.
        WatchesDroppedDescheduled = "watches_dropped_descheduled",
        /// Line watches that fired at once (line not readable).
        WatchesFiredImmediately = "watches_fired_immediately",
        /// Yield requests from spinning threads.
        YieldRequests = "yield_requests",
        /// Yields that handed the core to a ready thread.
        YieldsTaken = "yields_taken",
        /// Thread migrations between cores.
        Migrations = "migrations",
        /// Threads suspended by a fault.
        FaultSuspensions = "fault_suspensions",
        /// Suspended threads resumed.
        FaultResumes = "fault_resumes",
        /// Waits the starvation watchdog flagged.
        StarvationFlags = "starvation_flags",
    }

    /// End-of-run gauges read from the network and event queue when a
    /// snapshot is taken; never bumped during a run.
    Gauge {
        /// Events the queue dispatched.
        EvqEvents = "evq_events",
        /// Events scheduled on the queue.
        EvqScheduled = "evq_scheduled",
        /// Most events ever pending at once.
        EvqPeakPending = "evq_peak_pending",
        /// Cycles messages spent queued behind busy links.
        NetQueueDelayCycles = "net_queue_delay_cycles",
        /// Busy cycles summed over all links.
        NetLinkBusyCycles = "net_link_busy_cycles",
        /// Link traversals summed over all links.
        NetLinkMsgs = "net_link_msgs",
    }

    /// The idealized zero-latency lock backend.
    Ideal {
        /// Acquire requests.
        Acquires = "ideal_acquires",
        /// Zero-budget trylocks that failed at once.
        Tryfails = "ideal_tryfails",
    }

    /// Home directories of the coherence protocol.
    Dir {
        /// Requests queued behind a busy line.
        Queued = "dir_queued",
        /// GetS transactions started.
        Gets = "dir_gets",
        /// GetM transactions started.
        Getm = "dir_getm",
        /// Invalidations sent.
        Invs = "dir_invs",
        /// Downgrades sent to an exclusive owner.
        Downgrades = "dir_downgrades",
    }

    /// The paper's hardware: Lock Control Units, Lock Reservation Tables and
    /// Free Lock Tables.
    Core {
        /// Requests issued from an LCU to the LRT.
        LcuRequests = "lcu_requests",
        /// Read re-acquires served from an entry in RD_REL.
        LcuFastReacquires = "lcu_fast_reacquires",
        /// Acquires that found no free LCU entry.
        LcuExhausted = "lcu_exhausted",
        /// Grants taken with the entry freed at once (no waiter).
        LcuUncontendedTakes = "lcu_uncontended_takes",
        /// Grants taken with the entry kept for a queue.
        LcuContendedTakes = "lcu_contended_takes",
        /// Grants waiting for a migrated or preempted owner.
        LcuGrantWaits = "lcu_grant_waits",
        /// Grants passed on by an entry whose thread left.
        LcuPassThroughs = "lcu_pass_throughs",
        /// Silent releases by intermediate readers.
        LcuRdRel = "lcu_rd_rel",
        /// Releases sent back to the LRT (no successor).
        LcuLrtReleases = "lcu_lrt_releases",
        /// Write handoffs routed through the LRT.
        LcuWriterHandoffs = "lcu_writer_handoffs",
        /// Direct core-to-core lock transfers.
        LcuDirectTransfers = "lcu_direct_transfers",
        /// Overflow-mode grants taken.
        LcuOverflowTakes = "lcu_overflow_takes",
        /// Grants that reached no entry and were dropped.
        LcuOrphanGrants = "lcu_orphan_grants",
        /// Grants received from the LRT.
        LcuLrtGrants = "lcu_lrt_grants",
        /// Nonblocking requests denied and retried from software.
        LcuNbRetries = "lcu_nb_retries",
        /// Releases that raced a forwarded request.
        LcuReleaseRaces = "lcu_release_races",
        /// Entries freed on a release acknowledgement.
        LcuEntryFrees = "lcu_entry_frees",
        /// Forwards that found the owner mid-release and were redelivered.
        LcuFwdOrphans = "lcu_fwd_orphans",
        /// Forwards that found no free entry to re-allocate.
        LcuFwdNoentry = "lcu_fwd_noentry",
        /// Entries re-allocated to serve a forward.
        LcuReallocs = "lcu_reallocs",
        /// Forwards to an entry that already had a successor (dropped).
        LcuStaleForwards = "lcu_stale_forwards",
        /// Readers granted alongside a reading owner.
        LcuReadShares = "lcu_read_shares",
        /// Release races resolved by a direct transfer.
        LcuRaceTransfers = "lcu_race_transfers",
        /// Head tokens forwarded to the next node.
        LcuHeadNotifies = "lcu_head_notifies",
        /// Head tokens that bypassed a released reader.
        LcuTokenBypasses = "lcu_token_bypasses",
        /// Grants that reached an already-releasing entry.
        LcuGrantToReleasing = "lcu_grant_to_releasing",
        /// Read grants propagated down a reader chain.
        LcuReadPropagations = "lcu_read_propagations",
        /// Releases sent through the LRT by a migrated owner.
        LcuRemoteReleaseSent = "lcu_remote_release_sent",
        /// Remote releases served at the holding entry.
        LcuRemoteReleaseServed = "lcu_remote_release_served",
        /// Remote releases that found the entry not holding.
        LcuRemoteReleaseDropped = "lcu_remote_release_dropped",
        /// Remote releases that found no entry.
        LcuRemoteReleaseMissing = "lcu_remote_release_missing",
        /// Releases with no local entry, sent straight to the LRT.
        LcuUncontendedReleases = "lcu_uncontended_releases",
        /// Releases that waited for a free entry.
        LcuReleaseNoentry = "lcu_release_noentry",
        /// Trylocks whose budget ran out.
        LcuTryExpires = "lcu_try_expires",
        /// Grant timeouts that passed a waiting grant on.
        LcuGrantTimeouts = "lcu_grant_timeouts",
        /// Forwards redelivered after a release race.
        LcuFwdRedeliveries = "lcu_fwd_redeliveries",
        /// Requests re-issued from a new core after migration.
        LcuReissues = "lcu_reissues",
        /// Grants the LRT issued on a free lock.
        LrtFreeGrants = "lrt_free_grants",
        /// Requests forwarded to the queue tail.
        LrtForwards = "lrt_forwards",
        /// Requests told to retry.
        LrtRetries = "lrt_retries",
        /// Reservations set for a retrying requestor.
        LrtReservations = "lrt_reservations",
        /// Requests denied by another thread's reservation.
        LrtReservationDenials = "lrt_reservation_denials",
        /// Overflow-mode read grants.
        LrtOverflowGrants = "lrt_overflow_grants",
        /// Overflow-mode read releases.
        LrtOverflowReleases = "lrt_overflow_releases",
        /// Writers gated behind overflow readers.
        LrtWriterGated = "lrt_writer_gated",
        /// Gated writers granted once the overflow readers left.
        LrtWriterGrants = "lrt_writer_grants",
        /// Releases that left the lock free.
        LrtFrees = "lrt_frees",
        /// Releases told to retry (a new tail raced them).
        LrtReleaseRetries = "lrt_release_retries",
        /// Releases from a migrated owner forwarded to the head.
        LrtRemoteReleases = "lrt_remote_releases",
        /// LRT entries evicted to overflow (read from the tables at report time).
        LrtEvictions = "lrt_evictions",
        /// Requests that hit an overflowed LRT entry (read at report time).
        LrtOverflowHits = "lrt_overflow_hits",
        /// Released locks parked in a Free Lock Table.
        FltParks = "flt_parks",
        /// Re-acquires served from a Free Lock Table.
        FltHits = "flt_hits",
        /// Parked locks released to the LRT.
        FltUnparks = "flt_unparks",
        /// Parked locks handed straight to a forwarded requestor.
        FltFwdUnparks = "flt_fwd_unparks",
        /// Parked locks evicted by an injected fault.
        FltFaultEvictions = "flt_fault_evictions",
    }

    /// The SSB baseline (synchronization state buffer with remote retry).
    Ssb {
        /// Requests sent to a home SSB.
        Requests = "ssb_requests",
        /// Requests granted.
        Grants = "ssb_grants",
        /// Requests denied (lock held in a conflicting mode).
        Denials = "ssb_denials",
        /// Requests denied because the buffer was full.
        OverflowDenials = "ssb_overflow_denials",
        /// Denied requests retried remotely.
        Retries = "ssb_retries",
        /// Per-lock remote retries (lockstat only).
        RemoteRetries = "ssb_remote_retries",
        /// Trylocks whose budget ran out.
        TryExpires = "ssb_try_expires",
        /// Grants whose trylock had already expired (given back).
        OrphanGrants = "ssb_orphan_grants",
        /// Releases sent to a home SSB.
        Releases = "ssb_releases",
        /// Threads descheduled with a request in flight.
        DescheduledMidop = "ssb_descheduled_midop",
    }

    /// The software locks: TAS/TATAS, POSIX, MCS, MRSW, BRAVO and Fissile.
    Sw {
        /// Grants.
        Grants = "sw_grants",
        /// Trylocks that gave up.
        Tryfails = "sw_tryfails",
        /// Releases completed.
        Releases = "sw_releases",
        /// Failed test-and-set attempts.
        TasRetries = "sw_tas_retries",
        /// TATAS swaps that lost the race after a free read.
        TatasRaces = "sw_tatas_races",
        /// POSIX waiters that parked after spinning.
        PosixParks = "sw_posix_parks",
        /// MCS waiters that had to spin on their node.
        McsSpins = "sw_mcs_spins",
        /// MRSW readers that rolled back behind a writer.
        MrswRollbacks = "sw_mrsw_rollbacks",
        /// MRSW writers that waited for readers to drain.
        MrswWriterWaits = "sw_mrsw_writer_waits",
        /// BRAVO reads taken on the fast (biased) path.
        BravoFastReads = "sw_bravo_fast_reads",
        /// BRAVO reads diverted to the underlying lock.
        BravoSlowReads = "sw_bravo_slow_reads",
        /// BRAVO reader-table slot collisions.
        BravoSlotCollisions = "sw_bravo_slot_collisions",
        /// BRAVO read biases re-enabled.
        BravoRebias = "sw_bravo_rebias",
        /// BRAVO bias revocations by writers.
        BravoRevocations = "sw_bravo_revocations",
        /// Fissile reads taken on the fast path.
        FissileReadFast = "sw_fissile_read_fast",
        /// Fissile readers that rolled back behind a writer.
        FissileRollbacks = "sw_fissile_rollbacks",
        /// Fissile writers that waited for readers to drain.
        FissileWriterWaits = "sw_fissile_writer_waits",
        /// Spin wakes dropped because the thread was off-core.
        WakesDroppedOffcore = "sw_wakes_dropped_offcore",
        /// Spin loops re-driven by the fallback timer.
        FallbackRedrives = "sw_fallback_redrives",
        /// Spinners that yielded their core to a ready thread.
        SpinYields = "sw_spin_yields",
        /// Threads descheduled in the middle of a lock operation.
        DescheduledMidop = "sw_descheduled_midop",
    }

    /// Fault injection, deadlock detection and the correctness oracles.
    Faults {
        /// Faults the driver injected.
        FaultInjections = "fault_injections",
        /// Deadlocks the quiescence detector found.
        DeadlocksDetected = "deadlocks_detected",
        /// Oracle violations recorded.
        OracleViolations = "oracle_violations",
        /// Per-lock deadlock findings (lockstat only).
        Deadlock = "deadlock",
        /// Per-lock oracle violations (lockstat only).
        OracleViolation = "oracle_violation",
    }
}

/// Global catalog indices in name order (computed at compile time).
static BY_NAME: [u16; TOTAL] = name_order();

const fn name_order() -> [u16; TOTAL] {
    const fn less(a: &str, b: &str) -> bool {
        let (a, b) = (a.as_bytes(), b.as_bytes());
        let mut i = 0;
        while i < a.len() && i < b.len() {
            if a[i] != b[i] {
                return a[i] < b[i];
            }
            i += 1;
        }
        a.len() < b.len()
    }
    let mut order = [0u16; TOTAL];
    let mut i = 0;
    while i < TOTAL {
        order[i] = i as u16;
        // Insertion sort: sink the new index to its place.
        let mut j = i;
        while j > 0 && less(NAMES[order[j] as usize], NAMES[order[j - 1] as usize]) {
            let t = order[j];
            order[j] = order[j - 1];
            order[j - 1] = t;
            j -= 1;
        }
        i += 1;
    }
    order
}

/// The latency histograms the machine records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Request-to-grant wait of every granted acquire.
    LockWaitCycles,
    /// Critical-section hold time of every release.
    LockHoldCycles,
    /// Issue-to-completion time of every memory operation.
    MemOpCycles,
}

impl Hist {
    /// Every histogram, in declaration order.
    pub const ALL: [Hist; 3] = [
        Hist::LockWaitCycles,
        Hist::LockHoldCycles,
        Hist::MemOpCycles,
    ];

    /// The rendered name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::LockWaitCycles => "lock_wait_cycles",
            Hist::LockHoldCycles => "lock_hold_cycles",
            Hist::MemOpCycles => "mem_op_cycles",
        }
    }
}
