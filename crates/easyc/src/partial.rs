//! The running fold: the engine's per-scenario fleet totals as one
//! accumulator.
//!
//! Every fleet total in the engine is a strict left fold in rank order.
//! [`PartialAssessment`] holds that fold's state — the [`FleetTotals`]
//! accumulators, whose row count is also the row where the fold ends — so
//! every engine path (list and resident runs, the streamed fold) adds the
//! same terms in the same order:
//!
//! - [`PartialAssessment::identity`] — the empty fold, ending at row 0,
//!   with both per-sample draw buffers allocated;
//! - [`PartialAssessment::absorb`] — fold the next block of footprints,
//!   term by term; the block must start where the last one ended;
//! - [`PartialAssessment::draw_slots`] — the per-sample buffers the
//!   Monte-Carlo kernels add their terms into;
//! - [`PartialAssessment::finish`] — collapse to [`FleetTotals`].
//!
//! # Determinism
//!
//! IEEE-754 addition is not associative, so a total's bits depend on how
//! its terms are grouped. The fold admits one grouping only: `absorb` adds
//! each covered `mt_co2e` to the running total in rank order, and a block
//! that leaves a gap or overlaps absorbed rows panics. However a caller
//! chunks the fleet, the additions are those of one serial `+=` loop, so
//! `finish` is bit-identical to it (pinned by `tests/proptests.rs` over
//! arbitrary chunkings).

use crate::estimator::SystemFootprint;

/// Collapsed fleet totals of one [`PartialAssessment::finish`] — the
/// per-scenario roll-up every engine consumer builds its slice from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTotals {
    /// Rows absorbed.
    pub total: usize,
    /// Rows with an operational estimate.
    pub op_covered: usize,
    /// Rows with an embodied estimate.
    pub emb_covered: usize,
    /// Rows whose operational estimate errored.
    pub op_errors: usize,
    /// Rows whose embodied estimate errored.
    pub emb_errors: usize,
    /// Fleet-total operational carbon over covered systems, MT CO2e/yr.
    pub operational_mt: f64,
    /// Fleet-total embodied carbon over covered systems, MT CO2e.
    pub embodied_mt: f64,
    /// Retained per-sample operational draw sums (empty when no system was
    /// operationally covered — the engine's retention policy).
    pub op_draws: Vec<f64>,
    /// Retained per-sample embodied draw sums (empty when no system was
    /// embodied-covered).
    pub emb_draws: Vec<f64>,
}

/// The running fold over rows `0..end` — see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAssessment {
    /// The accumulators; `totals.total` is the row where the fold ends.
    totals: FleetTotals,
}

impl PartialAssessment {
    /// The empty fold: ends at row 0, per-sample buffers of `draws` zeros.
    pub fn identity(draws: usize) -> PartialAssessment {
        PartialAssessment {
            totals: FleetTotals {
                op_draws: vec![0.0; draws],
                emb_draws: vec![0.0; draws],
                ..FleetTotals::default()
            },
        }
    }

    /// Folds a block of footprints starting at global row `first_row` —
    /// term by term, in order, with the exact additions the serial fold
    /// performs.
    ///
    /// # Panics
    ///
    /// Panics unless `first_row` is the row where the last absorbed block
    /// ended (0 for the identity): a gap would skip systems and an
    /// overlap would double-count them.
    pub fn absorb(&mut self, first_row: usize, footprints: &[SystemFootprint]) {
        let t = &mut self.totals;
        assert_eq!(
            first_row, t.total,
            "absorbed blocks must be adjacent: block starts at row {first_row} \
             but the fold ends at row {}",
            t.total
        );
        for fp in footprints {
            t.total += 1;
            match &fp.operational {
                Ok(op) => {
                    t.op_covered += 1;
                    t.operational_mt += op.mt_co2e;
                }
                Err(_) => t.op_errors += 1,
            }
            match &fp.embodied {
                Ok(emb) => {
                    t.emb_covered += 1;
                    t.embodied_mt += emb.mt_co2e;
                }
                Err(_) => t.emb_errors += 1,
            }
        }
    }

    /// Mutable access to the per-sample draw buffers, `(operational,
    /// embodied)`, each `draws` long — where the engine's blocked
    /// Monte-Carlo kernels accumulate their `*slot += term` partial sums.
    pub fn draw_slots(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.totals.op_draws, &mut self.totals.emb_draws)
    }

    /// Collapses the fold into [`FleetTotals`]: the accumulated state
    /// verbatim, except that the draw buffer of a family with zero
    /// coverage is dropped (empty vector) — the sessions' retention
    /// policy.
    pub fn finish(self) -> FleetTotals {
        let mut totals = self.totals;
        if totals.op_covered == 0 {
            totals.op_draws = Vec::new();
        }
        if totals.emb_covered == 0 {
            totals.emb_draws = Vec::new();
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EasyC;
    use top500::synthetic::{generate_full, SyntheticConfig};

    fn footprints(n: u32) -> Vec<SystemFootprint> {
        let list = generate_full(&SyntheticConfig {
            n,
            ..Default::default()
        });
        let tool = EasyC::new();
        list.systems().iter().map(|s| tool.assess(s)).collect()
    }

    /// The serial reference: the exact running-total loop the engine used
    /// to carry (counts plus `+=` left folds in rank order).
    fn serial_fold(fps: &[SystemFootprint]) -> (usize, usize, usize, f64, f64) {
        let (mut op_cov, mut emb_cov) = (0usize, 0usize);
        let (mut op, mut emb) = (0.0f64, 0.0f64);
        for fp in fps {
            if let Ok(o) = &fp.operational {
                op_cov += 1;
                op += o.mt_co2e;
            }
            if let Ok(e) = &fp.embodied {
                emb_cov += 1;
                emb += e.mt_co2e;
            }
        }
        (fps.len(), op_cov, emb_cov, op, emb)
    }

    #[test]
    fn absorb_is_bit_identical_to_the_serial_left_fold() {
        let fps = footprints(41);
        let mut partial = PartialAssessment::identity(0);
        partial.absorb(0, &fps);
        let totals = partial.finish();
        let (n, op_cov, emb_cov, op, emb) = serial_fold(&fps);
        assert_eq!(totals.total, n);
        assert_eq!(totals.op_covered, op_cov);
        assert_eq!(totals.emb_covered, emb_cov);
        assert_eq!(totals.op_errors, n - op_cov);
        assert_eq!(totals.emb_errors, n - emb_cov);
        assert_eq!(totals.operational_mt.to_bits(), op.to_bits());
        assert_eq!(totals.embodied_mt.to_bits(), emb.to_bits());
    }

    #[test]
    fn adjacent_blocks_fold_bitwise_like_one_block() {
        let fps = footprints(37);
        let whole = {
            let mut p = PartialAssessment::identity(4);
            p.absorb(0, &fps);
            p.finish()
        };
        for chunk in [1usize, 2, 5, 13, 36, 37, 64] {
            let mut p = PartialAssessment::identity(4);
            let mut row = 0;
            for block in fps.chunks(chunk) {
                p.absorb(row, block);
                row += block.len();
            }
            let totals = p.finish();
            assert_eq!(
                totals.operational_mt.to_bits(),
                whole.operational_mt.to_bits(),
                "chunk {chunk}"
            );
            assert_eq!(
                totals.embodied_mt.to_bits(),
                whole.embodied_mt.to_bits(),
                "chunk {chunk}"
            );
            assert_eq!(totals, whole, "chunk {chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "must be adjacent")]
    fn absorb_panics_on_overlapping_block() {
        let fps = footprints(10);
        let mut p = PartialAssessment::identity(0);
        p.absorb(0, &fps);
        p.absorb(3, &fps);
    }

    #[test]
    #[should_panic(expected = "must be adjacent")]
    fn absorb_panics_on_a_gap() {
        let fps = footprints(10);
        let mut p = PartialAssessment::identity(0);
        p.absorb(0, &fps);
        p.absorb(15, &fps);
    }

    #[test]
    fn uncovered_families_drop_their_draw_buffers() {
        // Force every operational estimate into a data failure; embodied
        // ones survive — the retention policy must drop only the former.
        let fps: Vec<SystemFootprint> = footprints(9)
            .into_iter()
            .map(|mut fp| {
                fp.operational = Err(crate::error::EasyCError::NoPowerPath { rank: fp.rank });
                fp
            })
            .collect();
        let mut p = PartialAssessment::identity(5);
        p.absorb(0, &fps);
        let (op_slots, emb_slots) = p.draw_slots();
        op_slots.fill(1.0);
        emb_slots.fill(2.0);
        let totals = p.finish();
        assert_eq!(totals.op_covered, 0);
        assert_eq!(totals.op_errors, 9);
        assert!(totals.op_draws.is_empty());
        assert_eq!(totals.operational_mt.to_bits(), 0f64.to_bits());
        assert_eq!(totals.emb_covered, 9);
        assert_eq!(totals.emb_draws, vec![2.0; 5]);
    }

    #[test]
    fn identity_finishes_to_zeroed_totals() {
        let totals = PartialAssessment::identity(8).finish();
        assert_eq!(totals, FleetTotals::default());
        assert_eq!(totals.operational_mt.to_bits(), 0f64.to_bits());
        assert!(totals.op_draws.is_empty() && totals.emb_draws.is_empty());
    }
}
