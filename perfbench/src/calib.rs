//! A fixed calibration kernel that tracks the host's current speed.
//!
//! On a shared host the same code runs up to a third slower for tens of
//! seconds at a time, so raw wall times from two runs minutes apart
//! differ by more than most changes worth measuring. The benchmark times
//! this kernel between cells and reports its host-time metrics scaled to
//! a reference kernel time ([`REF_KERNEL_NS`]): `raw × REF / measured`.
//! The kernel is the benchmark's own code — a small discrete-event loop
//! over a binary heap, a hash map and a vector of records, with a little
//! allocation churn, the same mix of work the simulator does — so no
//! change to the simulator moves it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// The kernel's host time on the reference host (nanoseconds); host-time
/// metrics are reported as if the kernel had taken exactly this long.
pub const REF_KERNEL_NS: f64 = 4.0e6;

/// Events the kernel dispatches.
const EVENTS: u64 = 60_000;

/// Runs the kernel once and returns its host nanoseconds.
pub fn kernel_ns() -> u64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut lines: HashMap<u64, u64> = HashMap::new();
    let mut records = vec![[0u64; 8]; 512];
    let mut scratch: Vec<u64> = Vec::new();
    for i in 0..64 {
        queue.push(Reverse((next() % 100, i)));
    }
    for _ in 0..EVENTS {
        let Reverse((t, id)) = queue.pop().expect("the queue never drains");
        let r = next();
        let slot = lines.entry(r % 4_096).or_insert(0);
        *slot = slot.wrapping_add(t);
        let rec = &mut records[(id as usize * 7 + (r as usize & 63)) % 512];
        rec[(r >> 8) as usize & 7] ^= t;
        if r % 16 == 0 {
            scratch.push(t);
            if scratch.len() > 32 {
                scratch = Vec::new();
            }
        }
        queue.push(Reverse((t + 1 + (r >> 20) % 200, id)));
    }
    std::hint::black_box((&lines, &records, &scratch));
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_takes_measurable_time() {
        assert!(super::kernel_ns() > 0);
    }
}
