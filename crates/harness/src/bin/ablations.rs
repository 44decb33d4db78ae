//! Regenerates the LCU design-choice ablation table.
fn main() {
    locksim_harness::run_bin("ablations", locksim_harness::ablations::ablations);
}
