//! The locksim benchmark: four workloads of simulator cells, measured end
//! to end (untraced) and per layer (traced), with every cell's simulated
//! outputs checked. See `README.md` for the workloads, the metrics and
//! the layer each metric belongs to.

pub mod bench;
pub mod calib;
pub mod cells;
pub mod fingerprint;
pub mod spans;
