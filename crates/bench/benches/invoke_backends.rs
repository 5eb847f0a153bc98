//! Experiment: §4.1.6 — the compiled cells backend against the Fig. 11
//! substitution reducer on the even/odd counting workload (Fig. 12).
//!
//! Series printed: time vs. counting depth for both backends, plus the
//! compiled backend on the same trampoline inside wide units (extra
//! inert definitions in each unit's frame). Expected shape: the compiled
//! backend wins by a widening factor as depth grows — substitution
//! copies the λ body at every β-step, while the cells backend reads one
//! cell per call — and the wide units cost the compiled backend no more
//! per call, since a slot-addressed read indexes past the pads.

use std::hint::black_box;

use bench::harness::{median_us, report};
use bench::{even_odd_program, even_odd_wide_program};
use units::{Backend, Engine, Strictness};

fn main() {
    let engine = Engine::builder().strictness(Strictness::MzScheme).build();
    for depth in [25i64, 100, 400] {
        let program = engine.load_expr(even_odd_program(depth)).unwrap();
        let us = median_us(20, || {
            black_box(program.run_on(Backend::Compiled).unwrap());
        });
        report("invoke_backends/compiled", depth, us);
        let us = median_us(20, || {
            black_box(program.run_on(Backend::Reducer).unwrap());
        });
        report("invoke_backends/reducer", depth, us);
    }
    for extra in [16usize, 64] {
        let program = engine.load_expr(even_odd_wide_program(400, extra)).unwrap();
        let us = median_us(20, || {
            black_box(program.run_on(Backend::Compiled).unwrap());
        });
        report("invoke_backends/wide_compiled", extra, us);
    }
}
