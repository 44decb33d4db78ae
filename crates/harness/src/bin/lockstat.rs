//! Per-lock contention profile of the SSB-vs-LCU writer-starvation
//! contrast: per-lock stats tables, the starvation-watchdog verdict, the
//! longest blocking chains, written to stdout and `results/lockstat_*.csv`.
//!
//! ```text
//! cargo run --release -p locksim-harness --bin lockstat -- --quick
//! cargo run --release -p locksim-harness --bin lockstat -- --watchdog-cycles 30000
//! ```

fn main() {
    locksim_harness::lockstat::cli_main();
}
