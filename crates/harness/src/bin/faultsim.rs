//! Fault-injection matrix: every lock backend × every fault class
//! (suspension, migration, FLT eviction, LRT pressure, wire delay), each
//! cell judged by the liveness/fairness/exclusion oracles. Writes a
//! pass/fail table to stdout plus `results/faultsim.csv`.
//!
//! ```text
//! cargo run --release -p locksim-harness --bin faultsim -- --quick
//! cargo run --release -p locksim-harness --bin faultsim -- --seed 42 --csv results/faultsim.csv
//! ```

fn main() {
    locksim_harness::faultsim::cli_main();
}
