//! Experiment: §4.1.6 — "there exists a single copy of the definition and
//! initialization code regardless of how many times the unit is linked or
//! invoked": per-instance cost stays flat as instances accumulate.
//!
//! Series printed: total time vs. instance count (compiled backend); a
//! flat per-instance figure demonstrates O(1) instantiation over shared
//! code.

use std::hint::black_box;

use bench::harness::{median_us, report};
use bench::{one_unit, repeated_invoke};
use units::{Backend, Engine, Strictness};

fn main() {
    let engine = Engine::builder().strictness(Strictness::MzScheme).build();
    for count in [1usize, 10, 100, 1000] {
        let program = engine.load_expr(repeated_invoke(one_unit(), count)).unwrap();
        let us = median_us(20, || {
            black_box(program.run_on(Backend::Compiled).unwrap());
        });
        report("instantiation/compiled", count, us);
    }
}
