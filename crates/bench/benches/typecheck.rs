//! Experiment: Fig. 15 — type-checking cost versus interface width and
//! link-graph depth.
//!
//! Series printed: time vs. number of exports for a single unit, and time
//! vs. constituent count for linked chains (checked as whole programs),
//! plus the DESIGN.md §5 ablation: the cost of the §4.1.1 valuability
//! analysis — Paper strictness runs it, MzScheme skips it.

use std::hint::black_box;

use bench::harness::{median_us, report};
use bench::{chain_program, wide_typed_unit};
use units::{check_program, type_of, CheckOptions, Level};

fn main() {
    for width in [4usize, 16, 64, 256] {
        let unit = wide_typed_unit(width);
        let us = median_us(20, || {
            black_box(type_of(&unit, Level::Constructed).unwrap());
        });
        report("typecheck/unit_width", width, us);
    }
    // Untyped context checking over growing link graphs (Fig. 10 at
    // scale).
    for n in [4usize, 16, 64] {
        let program = chain_program(n);
        let us = median_us(20, || {
            black_box(
                check_program(
                    &program,
                    CheckOptions { level: Level::Untyped, strictness: units::Strictness::MzScheme },
                )
                .unwrap(),
            );
        });
        report("typecheck/context_chain", n, us);
    }
    // Ablation: valuability analysis on versus off.
    for n in [16usize, 64] {
        let program = chain_program(n);
        for (label, strictness) in
            [("paper", units::Strictness::Paper), ("mzscheme", units::Strictness::MzScheme)]
        {
            let us = median_us(20, || {
                black_box(
                    check_program(&program, CheckOptions { level: Level::Untyped, strictness })
                        .unwrap(),
                );
            });
            report(&format!("typecheck_ablation/valuability/{label}"), n, us);
        }
    }
}
