//! Input-major campaign phases: every fault of a phase against every
//! shared input, cut into tiles for the worker pool.
//!
//! The paper's §6 runs each fault against one shared test case. A
//! fault-major schedule (one work item per fault, walking every input)
//! needs every input's golden prefix at once, which does not fit in
//! memory at the paper's 300 inputs. This module turns the order round,
//! as ZOFI does: the unit of work is a [`Tile`] of consecutive inputs ×
//! faults, and the worker that takes it makes each input's golden pass
//! ([`crate::session::RunSession::hold_ladder`]) and then forks every
//! fault of the tile from the ladder it holds. The next input's pass
//! drops the ladder, so rung memory is one input's per worker.
//!
//! The tile list depends only on the fault and input counts, never on
//! the pool width, so checkpoint records ([`TileRecord`], one per tile)
//! and shard slices key the same items whatever runs them. Within a tile
//! the runs go input by input, each input's faults in trigger-PC order:
//! consecutive runs then share their trigger's fetch pin, and a pin that
//! moves kills the translated blocks over both words.

use std::ops::Range;

use serde::{Deserialize, Serialize};
use swifi_core::fault::{FaultSpec, Trigger};
use swifi_programs::input::TestInput;

use crate::prefix::{fork_points, ForkPoints};
use crate::runner::{FailureMode, ModeCounts};
use crate::session::RunSession;

/// The work items a phase aims for. With at least this many inputs a
/// tile is consecutive inputs × all the phase's faults; with fewer, each
/// input's faults are split into chunks, and a worker that takes several
/// chunks of one input makes its pass once.
pub const TILES_PER_PHASE: usize = 24;

/// One work item of a phase: consecutive inputs × a slice of the phase's
/// faults in trigger-PC order ([`Matrix::fault_at`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tile {
    /// Positions in the matrix's trigger-PC fault order.
    pub faults: Range<usize>,
    /// Input indices.
    pub inputs: Range<usize>,
}

/// The tiles of a phase of `faults` × `inputs` runs, in input order.
pub fn tiles(faults: usize, inputs: usize) -> Vec<Tile> {
    if faults == 0 || inputs == 0 {
        return Vec::new();
    }
    let (per_tile, chunk) = if inputs >= TILES_PER_PHASE {
        (inputs.div_ceil(TILES_PER_PHASE), faults)
    } else {
        let chunks = TILES_PER_PHASE.div_ceil(inputs).min(faults);
        (1, faults.div_ceil(chunks))
    };
    let mut out = Vec::new();
    for first in (0..inputs).step_by(per_tile) {
        for f in (0..faults).step_by(chunk) {
            out.push(Tile {
                faults: f..(f + chunk).min(faults),
                inputs: first..(first + per_tile).min(inputs),
            });
        }
    }
    out
}

/// One phase's faults against the shared inputs.
#[derive(Debug)]
pub struct Matrix<'a> {
    pub(crate) faults: &'a [FaultSpec],
    pub(crate) inputs: &'a [TestInput],
    /// Fault indices in trigger-PC order (ties keep index order).
    order: Vec<usize>,
    /// The fork points the golden passes pause at.
    pub(crate) points: ForkPoints,
}

impl<'a> Matrix<'a> {
    /// The phase of `faults` × `inputs`.
    pub fn new(faults: &'a [FaultSpec], inputs: &'a [TestInput]) -> Matrix<'a> {
        let mut order: Vec<usize> = (0..faults.len()).collect();
        order.sort_by_key(|&f| match faults[f].trigger {
            Trigger::OpcodeFetch(pc) => pc,
            _ => u32::MAX,
        });
        Matrix {
            faults,
            inputs,
            order,
            points: fork_points(faults),
        }
    }

    /// The phase's tiles ([`tiles`]).
    pub fn tiles(&self) -> Vec<Tile> {
        tiles(self.faults.len(), self.inputs.len())
    }

    /// The fault index at position `k` of the trigger-PC order.
    pub fn fault_at(&self, k: usize) -> usize {
        self.order[k]
    }

    /// Fault `f` on input `i`, as a tile runs it on `session`: with
    /// `fork`, the session first holds input `i`'s golden pass
    /// ([`RunSession::hold_ladder`]), which the next run of the same input
    /// reuses. Returns the run's failure mode and whether the fault fired.
    pub fn run(
        &self,
        session: &mut RunSession,
        fork: bool,
        f: usize,
        i: usize,
        seed: u64,
    ) -> (FailureMode, bool) {
        if fork {
            session.hold_ladder(&self.inputs[i], &self.points);
        }
        session.run(&self.inputs[i], Some(&self.faults[f]), seed)
    }

    /// The runs of `tile` in execution order, input by input and each
    /// input's faults in trigger-PC order: `(position in the tile's
    /// fault slice, fault index, input index)`.
    pub fn runs<'t>(&'t self, tile: &'t Tile) -> impl Iterator<Item = (usize, usize, usize)> + 't {
        let order = &self.order[tile.faults.clone()];
        tile.inputs
            .clone()
            .flat_map(move |i| order.iter().enumerate().map(move |(k, &f)| (k, f, i)))
    }
}

/// What one tile recorded: the checkpoint record of a matrix phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileRecord {
    /// Per fault of the tile, in its trigger-PC order: failure modes and
    /// dormant runs over the tile's inputs, abnormal runs left out.
    pub counts: Vec<(ModeCounts, u64)>,
    /// `(fault index, input index, panic message)` of each run that
    /// panicked out of the harness.
    pub abnormal: Vec<(u64, u64, String)>,
}

impl TileRecord {
    /// An empty record for a tile of `faults` faults.
    pub fn new(faults: usize) -> TileRecord {
        TileRecord {
            counts: vec![(ModeCounts::default(), 0); faults],
            abnormal: Vec::new(),
        }
    }

    /// Count one run of the tile's `k`-th fault.
    pub fn add(&mut self, k: usize, mode: FailureMode, fired: bool) {
        let (counts, dormant) = &mut self.counts[k];
        counts.add(mode);
        *dormant += u64::from(!fired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_core::fault::{ErrorOp, Firing, Target};

    fn covered(tiles: &[Tile], faults: usize, inputs: usize) -> Vec<u32> {
        let mut hits = vec![0; faults * inputs];
        for t in tiles {
            for k in t.faults.clone() {
                for i in t.inputs.clone() {
                    hits[k * inputs + i] += 1;
                }
            }
        }
        hits
    }

    #[test]
    fn tiles_cover_every_run_once_in_input_order() {
        for (faults, inputs) in [
            (36, 3),
            (10, 3),
            (29, 300),
            (46, 1),
            (1, 1),
            (5, 24),
            (3, 25),
        ] {
            let t = tiles(faults, inputs);
            assert!(
                covered(&t, faults, inputs).iter().all(|&n| n == 1),
                "{faults}x{inputs}"
            );
            assert!(t.windows(2).all(|w| w[0].inputs.start <= w[1].inputs.start));
            assert!(
                t.len() < TILES_PER_PHASE + inputs,
                "{faults}x{inputs}: {}",
                t.len()
            );
            // Many inputs: whole fault lists; few: one input per tile.
            if inputs >= TILES_PER_PHASE {
                assert!(t.iter().all(|t| t.faults == (0..faults)));
            } else {
                assert!(t.iter().all(|t| t.inputs.len() == 1));
            }
        }
        assert!(tiles(0, 5).is_empty() && tiles(5, 0).is_empty());
        // 300 inputs: 24 tiles of 13 inputs (the last of 1).
        assert_eq!(tiles(29, 300).len(), 24);
    }

    #[test]
    fn runs_go_input_by_input_in_trigger_pc_order() {
        let spec = |pc, when| FaultSpec {
            what: ErrorOp::Xor(1),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(pc),
            when,
        };
        let faults = [
            spec(0x120, Firing::EveryTime),
            spec(0x100, Firing::Nth(3)),
            spec(0x120, Firing::Nth(2)),
            spec(0x100, Firing::First),
        ];
        let inputs = swifi_programs::Family::JamesB.test_case(2, 1);
        let m = Matrix::new(&faults, &inputs);
        assert_eq!(m.points.len(), 4);
        let tile = Tile {
            faults: 1..3,
            inputs: 0..2,
        };
        let runs: Vec<_> = m.runs(&tile).collect();
        // Trigger-PC order is 1, 3, 0, 2; the tile takes positions 1..3.
        assert_eq!(runs, [(0, 3, 0), (1, 0, 0), (0, 3, 1), (1, 0, 1)]);
        assert_eq!(m.fault_at(0), 1);
    }
}
