//! Reading the bytecode profiler's counters as structured data.
//!
//! The VM fills a [`units_runtime::OpProfile`] while dispatching (in
//! `trace` builds); this module turns one chunk's raw counters into a
//! [`ChunkProfile`] — totals, per-op counts in instruction order, and
//! a hot-mnemonic ranking — so tooling (the REPL's `:disasm --profile`,
//! future superinstruction selection) can find the hot Fig. 11
//! invoke/compound sequences empirically instead of by guesswork.

use std::collections::BTreeMap;

use units_runtime::Chunk;

/// A point-in-time snapshot of one chunk's execution profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkProfile {
    /// Whether the chunk had profiler storage at all (only `trace`
    /// builds allocate it; when `false` every count below is zero).
    pub enabled: bool,
    /// Total op executions across the whole chunk.
    pub total_executed: u64,
    /// Fuel the dispatch loop attributed to this chunk at flush points.
    pub fuel_attributed: u64,
    /// Execution count per instruction, in instruction order (empty
    /// when disabled).
    pub per_op: Vec<u64>,
    /// Executions aggregated by mnemonic, hottest first (ties broken
    /// alphabetically); mnemonics with zero executions are omitted.
    pub by_mnemonic: Vec<(&'static str, u64)>,
}

impl ChunkProfile {
    /// Snapshots `chunk`'s current counters.
    pub fn capture(chunk: &Chunk) -> ChunkProfile {
        let per_op = chunk.profile.counts();
        let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (op, n) in chunk.code.iter().zip(&per_op) {
            if *n > 0 {
                *by.entry(op.name().trim_start_matches("vm/op/")).or_insert(0) += n;
            }
        }
        let mut by_mnemonic: Vec<_> = by.into_iter().collect();
        by_mnemonic.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        ChunkProfile {
            enabled: chunk.profile.enabled(),
            total_executed: per_op.iter().sum(),
            fuel_attributed: chunk.profile.fuel(),
            per_op,
            by_mnemonic,
        }
    }

    /// The `n` hottest mnemonics (fewer when the chunk ran less code).
    pub fn hottest(&self, n: usize) -> &[(&'static str, u64)] {
        &self.by_mnemonic[..n.min(self.by_mnemonic.len())]
    }

    /// The execution count of instruction `i` (0 when out of range or
    /// disabled).
    pub fn count_at(&self, i: usize) -> u64 {
        self.per_op.get(i).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower_program, resolve_program};
    use units_runtime::{execute, Machine};

    fn compiled_run() -> std::sync::Arc<Chunk> {
        let program =
            units_syntax::parse_expr("(invoke (unit (import) (export) (init (+ (* 6 7) 0))))")
                .unwrap();
        let chunk = lower_program(&resolve_program(&program));
        execute(&chunk, &mut Machine::new()).unwrap();
        chunk
    }

    #[test]
    fn capture_counts_the_run_in_trace_builds_only() {
        let chunk = compiled_run();
        let profile = ChunkProfile::capture(&chunk);
        if !units_trace::COMPILED {
            assert!(!profile.enabled);
            assert_eq!(profile.total_executed, 0);
            assert_eq!(profile.fuel_attributed, 0);
            assert!(profile.per_op.is_empty());
            assert!(profile.by_mnemonic.is_empty());
            return;
        }
        assert!(profile.enabled, "trace builds allocate counters");
        assert!(profile.total_executed > 0, "the run was counted");
        assert!(profile.fuel_attributed > 0, "flush points attributed fuel");
        assert_eq!(profile.per_op.len(), chunk.code.len());
        assert_eq!(profile.total_executed, profile.per_op.iter().sum::<u64>());
        let hot = profile.hottest(3);
        assert!(!hot.is_empty());
        assert!(
            profile.by_mnemonic.windows(2).all(|w| w[0].1 >= w[1].1),
            "hottest first: {:?}",
            profile.by_mnemonic
        );
        // Counters survive reset requests from the chunk side.
        chunk.profile.reset();
        assert_eq!(ChunkProfile::capture(&chunk).total_executed, 0);
    }
}
