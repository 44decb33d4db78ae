//! Self-profiling perf-regression harness: runs the standardized scenario
//! suite (figure-panel microbenchmarks, faultsim cells, chaos seeds),
//! writes a machine-readable `BENCH_current.json` (wall time,
//! simulated-cycles/sec, events/sec, peak event-queue depth, allocation
//! churn per scenario), and optionally gates against a checked-in
//! baseline.
//!
//! ```text
//! cargo run --release -p locksim-harness --bin benchsim
//! cargo run --release -p locksim-harness --bin benchsim -- --baseline BENCH_0001.json --tolerance 3.0
//! cargo run --release -p locksim-harness --bin benchsim -- --quick --self-profile prof.collapsed
//! ```

// The counting allocator is installed only in the benchsim bins, so the
// figure binaries and tests pay nothing; `mark_installed` is what flips
// `alloc_counting` to true in the emitted report.
#[global_allocator]
static ALLOC: locksim_trace::alloc::CountingAlloc = locksim_trace::alloc::CountingAlloc;

fn main() {
    locksim_trace::alloc::mark_installed();
    locksim_harness::bench::cli_main();
}
