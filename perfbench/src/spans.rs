//! Host-time spans recorded from outside the simulator.
//!
//! The traced run wraps each layer's public entry points: a delegating
//! [`TimedBackend`] around the real lock backend, a delegating
//! [`TimedProgram`] around each simulated thread's program, and
//! [`span`] guards around set-up, the run loop, the oracle checks and the
//! snapshot calls. Every span carries a name, start, end, its parent and
//! the cell it belongs to; they stay in memory until the run ends.
//!
//! Hooks and program resumes fire hundreds of thousands of times per cell,
//! so they are recorded as *aggregated* leaf spans: one record per
//! (cell, parent, kind) holding the call count, the summed duration and the
//! first start and last end. Accumulating into a fixed array keeps the
//! run loop free of allocations, so the traced run's allocation counts
//! match the untraced run's.
//!
//! When recording is off (the untraced run) no wrapper is installed and
//! [`span`] is a no-op, so the measured code is exactly the simulator's.

use std::cell::RefCell;
use std::time::Instant;

use locksim_engine::stats::Counters;
use locksim_engine::Cycles;
use locksim_machine::{
    Action, Addr, BackendFault, CoreId, Ctx, LineAddr, LockBackend, Mach, Mode, Outcome, Program,
    ThreadId, WirePayload,
};

/// The kinds of aggregated leaf spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    /// A hook of an LCU backend (`lcu`, `lcu+flt`).
    CoreHook,
    /// A hook of the SSB backend.
    SsbHook,
    /// A hook of a software-lock backend.
    SwHook,
    /// A simulated thread's `Program::resume`.
    Resume,
    /// `LockBackend::on_line_invalidated` calls (counted, and also timed
    /// under the backend's hook leaf).
    Watch,
}

const N_LEAVES: usize = 5;

impl Leaf {
    const ALL: [Leaf; N_LEAVES] = [
        Leaf::CoreHook,
        Leaf::SsbHook,
        Leaf::SwHook,
        Leaf::Resume,
        Leaf::Watch,
    ];

    /// The span name written to the span log.
    pub fn name(self) -> &'static str {
        match self {
            Leaf::CoreHook => "core/hook",
            Leaf::SsbHook => "ssb/hook",
            Leaf::SwHook => "swlocks/hook",
            Leaf::Resume => "programs/resume",
            Leaf::Watch => "machine/watch_fired",
        }
    }

    /// The hook leaf for a backend label.
    pub fn for_backend(label: &str) -> Leaf {
        match label {
            "lcu" | "lcu+flt" => Leaf::CoreHook,
            "ssb" => Leaf::SsbHook,
            _ => Leaf::SwHook,
        }
    }
}

/// One recorded span. Plain spans have `calls == 1` and
/// `busy_ns == end_ns - start_ns`; aggregated leaves sum many calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the run's span list.
    pub id: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The cell this span belongs to (shared by all spans of one cell).
    pub cell: u32,
    /// Layer-qualified name, e.g. `machine/run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was enabled.
    pub end_ns: u64,
    /// Calls folded into this record.
    pub calls: u64,
    /// Time covered by the calls.
    pub busy_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct LeafAcc {
    calls: u64,
    busy_ns: u64,
    first_ns: u64,
    last_ns: u64,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    cell: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Leaf accumulators of the innermost open span.
    leaves: [LeafAcc; N_LEAVES],
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends the innermost open span's leaf accumulators as child spans
    /// and clears them.
    fn flush_leaves(&mut self) {
        let parent = self.stack.last().copied();
        for (i, acc) in self.leaves.iter_mut().enumerate() {
            if acc.calls == 0 {
                continue;
            }
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent,
                cell: self.cell,
                name: Leaf::ALL[i].name(),
                start_ns: acc.first_ns,
                end_ns: acc.last_ns,
                calls: acc.calls,
                busy_ns: acc.busy_ns,
            });
            *acc = LeafAcc::default();
        }
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        cell: 0,
        spans: Vec::new(),
        stack: Vec::new(),
        leaves: [LeafAcc::default(); N_LEAVES],
    });
}

/// Starts recording on this thread, discarding earlier spans.
pub fn enable() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = true;
        r.epoch = Instant::now();
        r.spans.clear();
        r.stack.clear();
        r.leaves = [LeafAcc::default(); N_LEAVES];
    });
}

/// Stops recording and returns every span recorded since [`enable`].
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = false;
        r.stack.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Sets the cell id stamped on the spans that follow.
pub fn set_cell(cell: u32) {
    REC.with(|r| r.borrow_mut().cell = cell);
}

/// An open span; closes when dropped.
#[must_use = "the span closes when the guard is dropped"]
pub struct SpanGuard {
    id: Option<u32>,
}

/// Opens a span named `name` under the innermost open span (a no-op
/// guard when recording is off).
pub fn span(name: &'static str) -> SpanGuard {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        // Leaves recorded so far belong to the parent's earlier stretch.
        r.flush_leaves();
        let id = r.spans.len() as u32;
        let start_ns = r.now_ns();
        let parent = r.stack.last().copied();
        let cell = r.cell;
        r.spans.push(Span {
            id,
            parent,
            cell,
            name,
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        r.stack.push(id);
        Some(id)
    });
    SpanGuard { id }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else {
            return;
        };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            if !r.enabled {
                return;
            }
            r.flush_leaves();
            let end = r.now_ns();
            if let Some(s) = r.spans.get_mut(id as usize) {
                s.end_ns = end;
                s.busy_ns = end.saturating_sub(s.start_ns);
            }
            if r.stack.last() == Some(&id) {
                r.stack.pop();
            }
        });
    }
}

/// Times `f` as one call of the `leaf` aggregate under the innermost span.
fn timed<R>(leaf: Leaf, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let start = u64::try_from(t0.saturating_duration_since(r.epoch).as_nanos()).unwrap_or(0);
        let end = u64::try_from(t1.saturating_duration_since(r.epoch).as_nanos()).unwrap_or(0);
        let acc = &mut r.leaves[leaf as usize];
        if acc.calls == 0 {
            acc.first_ns = start;
        }
        acc.calls += 1;
        acc.busy_ns += end - start;
        acc.last_ns = end;
    });
    out
}

/// Counts one call of `leaf` without timing it.
fn count(leaf: Leaf) {
    REC.with(|r| r.borrow_mut().leaves[leaf as usize].calls += 1);
}

/// A delegating lock backend that times every hook of the backend it
/// wraps. Every trait method is forwarded, including those with default
/// bodies, so a wrapped world simulates exactly as an unwrapped one.
pub struct TimedBackend {
    inner: Box<dyn LockBackend>,
    leaf: Leaf,
}

impl TimedBackend {
    /// Wraps `inner`, attributing its hook time to `leaf`.
    pub fn new(inner: Box<dyn LockBackend>, leaf: Leaf) -> Self {
        TimedBackend { inner, leaf }
    }
}

impl LockBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_acquire(
        &mut self,
        m: &mut Mach,
        t: ThreadId,
        lock: Addr,
        mode: Mode,
        try_for: Option<Cycles>,
    ) {
        let inner = &mut self.inner;
        timed(self.leaf, || inner.on_acquire(m, t, lock, mode, try_for));
    }

    fn on_release(&mut self, m: &mut Mach, t: ThreadId, lock: Addr, mode: Mode) {
        let inner = &mut self.inner;
        timed(self.leaf, || inner.on_release(m, t, lock, mode));
    }

    fn on_wire(&mut self, m: &mut Mach, payload: WirePayload) {
        let inner = &mut self.inner;
        timed(self.leaf, || inner.on_wire(m, payload));
    }

    fn on_timer(&mut self, m: &mut Mach, token: u64) {
        let inner = &mut self.inner;
        timed(self.leaf, || inner.on_timer(m, token));
    }

    fn on_mem_value(&mut self, m: &mut Mach, t: ThreadId, value: u64) {
        let inner = &mut self.inner;
        timed(self.leaf, || inner.on_mem_value(m, t, value));
    }

    fn on_line_invalidated(&mut self, m: &mut Mach, t: ThreadId, line: LineAddr) {
        count(Leaf::Watch);
        let inner = &mut self.inner;
        timed(self.leaf, || inner.on_line_invalidated(m, t, line));
    }

    fn on_thread_scheduled(&mut self, m: &mut Mach, t: ThreadId, core: CoreId) {
        let inner = &mut self.inner;
        timed(self.leaf, || inner.on_thread_scheduled(m, t, core));
    }

    fn on_thread_descheduled(&mut self, m: &mut Mach, t: ThreadId) {
        let inner = &mut self.inner;
        timed(self.leaf, || inner.on_thread_descheduled(m, t));
    }

    fn on_fault(&mut self, m: &mut Mach, fault: BackendFault) -> bool {
        let inner = &mut self.inner;
        timed(self.leaf, || inner.on_fault(m, fault))
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }

    fn debug_state(&self) -> String {
        self.inner.debug_state()
    }
}

/// A delegating program that times every `resume` of the program it wraps.
pub struct TimedProgram {
    inner: Box<dyn Program>,
}

impl TimedProgram {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Program>) -> Self {
        TimedProgram { inner }
    }
}

impl Program for TimedProgram {
    fn resume(&mut self, ctx: &mut Ctx<'_>, outcome: Outcome) -> Action {
        let inner = &mut self.inner;
        timed(Leaf::Resume, || inner.resume(ctx, outcome))
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// A span's self time: its busy time minus the busy time of its direct
/// children (spans on one thread nest, so children never overlap).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p as usize] += s.busy_ns;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.busy_ns.saturating_sub(c))
        .collect()
}

/// Renders spans as tab-separated text with a header row.
pub fn to_tsv(spans: &[Span]) -> String {
    let selfs = self_ns(spans);
    let mut out =
        String::from("id\tparent\tcell\tname\tstart_ns\tend_ns\tcalls\tbusy_ns\tself_ns\n");
    for (s, own) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.id, parent, s.cell, s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns, own
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        enable();
        set_cell(3);
        {
            let _outer = span("outer");
            timed(Leaf::Resume, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let spans = take();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "programs/resume", "inner"]);
        assert!(spans.iter().all(|s| s.cell == 3));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let selfs = self_ns(&spans);
        assert_eq!(
            selfs[0],
            spans[0].busy_ns - spans[1].busy_ns - spans[2].busy_ns
        );
        assert!(to_tsv(&spans).lines().count() == 4);
    }

    #[test]
    fn span_is_a_noop_when_disabled() {
        let _ = take();
        {
            let _s = span("ignored");
        }
        assert!(take().is_empty());
    }
}
