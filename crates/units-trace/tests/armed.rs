//! `faults::armed`, alone in its test binary so that no other test arms
//! a plane while it runs.

use std::sync::Barrier;
use std::thread;

use units_trace::faults::{self, FaultPlane};

#[test]
fn armed_counts_planes_on_every_thread() {
    assert!(!faults::armed(), "no plane armed anywhere");
    let barrier = Barrier::new(2);
    let (armed, tripped, worker_trips) = thread::scope(|s| {
        let worker = s.spawn(|| {
            faults::arm(FaultPlane::seeded(1).rate_per_mille(1000).budget(u64::MAX));
            barrier.wait();
            barrier.wait();
            faults::disarm().expect("the worker's plane stays armed").trips()
        });
        barrier.wait();
        let seen = (faults::armed(), faults::trip("main/site"));
        barrier.wait();
        (seen.0, seen.1, worker.join().unwrap())
    });
    assert!(armed, "a plane armed on another thread counts");
    assert!(tripped.is_ok(), "and fires nothing here");
    assert_eq!(worker_trips, 0, "the main thread's trip reached no plane");
    assert!(!faults::armed(), "disarm gives the count back");
}
