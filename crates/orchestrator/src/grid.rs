//! The sweep grid and its shard assignment.
//!
//! A study is a fixed grid of `(configuration, repetition)` slots:
//! `n_fixed` fixed frequencies (slowest first), the three kernel
//! governors, then the oracle — each run `reps` times. Sharding
//! round-robins the stage-1 slots across `of` agents and, in a second
//! wave, the oracle repetitions (the oracle's plan needs every stage-1
//! profile, so its wave can only start once stage 1 is merged).
//!
//! Everything here is pure arithmetic over
//! [`StudyScope`] so the
//! supervisor and every agent compute the *same* assignment without
//! talking to each other — the assignment is part of the protocol.

use interlag_core::experiment::{LabConfig, StudyScope, SweepStage};
use interlag_power::opp::Frequency;

/// The shape of one study's sweep grid.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// The fixed frequencies, slowest first (configs `0..n_fixed`).
    pub freqs: Vec<Frequency>,
    /// Repetitions per configuration.
    pub reps: u32,
}

/// The governor configurations after the fixed frequencies, in job order.
const GOVERNOR_NAMES: [&str; 3] = ["conservative", "interactive", "ondemand"];

impl SweepGrid {
    /// The grid a lab with this configuration will sweep.
    pub fn for_lab(config: &LabConfig) -> Self {
        SweepGrid { freqs: config.device.opps.frequencies().collect(), reps: config.reps.max(1) }
    }

    /// Number of stage-1 configurations (fixed frequencies + governors).
    pub fn stage1_configs(&self) -> usize {
        self.freqs.len() + GOVERNOR_NAMES.len()
    }

    /// The oracle's configuration index (stage 2).
    pub fn oracle_config(&self) -> usize {
        self.stage1_configs()
    }

    /// Total slots in the whole sweep, both stages.
    pub fn total_slots(&self) -> usize {
        (self.stage1_configs() + 1) * self.reps as usize
    }

    /// The configuration's display name — must match what the study loop
    /// itself names it, since synthesized placeholder records carry it.
    pub fn config_name(&self, config: usize) -> String {
        if config < self.freqs.len() {
            format!("fixed-{}", self.freqs[config])
        } else if config < self.stage1_configs() {
            GOVERNOR_NAMES[config - self.freqs.len()].to_string()
        } else {
            "oracle".to_string()
        }
    }

    /// Every slot of one stage, in `(config, rep)` order.
    pub fn stage_slots(&self, stage: SweepStage) -> Vec<(usize, u32)> {
        match stage {
            SweepStage::Stage1 => (0..self.stage1_configs())
                .flat_map(|c| (0..self.reps).map(move |r| (c, r)))
                .collect(),
            SweepStage::Oracle => (0..self.reps).map(|r| (self.oracle_config(), r)).collect(),
        }
    }

    /// The slots one scope owns — the round-robin assignment both sides
    /// of the protocol derive independently.
    pub fn slots_for(&self, scope: StudyScope) -> Vec<(usize, u32)> {
        self.stage_slots(scope.stage)
            .into_iter()
            .filter(|&(c, r)| match scope.stage {
                SweepStage::Stage1 => scope.owns_stage1(c, r, self.reps),
                SweepStage::Oracle => scope.owns_oracle(r),
            })
            .collect()
    }

    /// `true` when `(config, rep)` is a slot of this grid at all.
    pub fn contains(&self, config: usize, rep: u32) -> bool {
        config <= self.oracle_config() && rep < self.reps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SweepGrid {
        SweepGrid::for_lab(&LabConfig { reps: 3, ..Default::default() })
    }

    #[test]
    fn shards_partition_each_stage_exactly() {
        let g = grid();
        for stage in [SweepStage::Stage1, SweepStage::Oracle] {
            let all = g.stage_slots(stage);
            for of in [1u32, 2, 4, 8, 64] {
                let mut union: Vec<(usize, u32)> = (0..of)
                    .flat_map(|shard| g.slots_for(StudyScope { shard, of, stage }))
                    .collect();
                union.sort_unstable();
                let mut expected = all.clone();
                expected.sort_unstable();
                assert_eq!(union, expected, "stage {stage:?} of {of}");
            }
        }
    }

    #[test]
    fn stages_are_disjoint_and_cover_the_study() {
        let g = grid();
        let s1 = g.stage_slots(SweepStage::Stage1);
        let or = g.stage_slots(SweepStage::Oracle);
        assert_eq!(s1.len() + or.len(), g.total_slots());
        assert!(s1.iter().all(|&(c, _)| c < g.oracle_config()));
        assert!(or.iter().all(|&(c, _)| c == g.oracle_config()));
        assert!(s1.iter().chain(&or).all(|&(c, r)| g.contains(c, r)));
        assert!(!g.contains(g.oracle_config() + 1, 0));
        assert!(!g.contains(0, g.reps));
    }

    #[test]
    fn config_names_cover_the_paper_order() {
        let g = grid();
        assert!(g.config_name(0).starts_with("fixed-"));
        assert_eq!(g.config_name(g.freqs.len()), "conservative");
        assert_eq!(g.config_name(g.freqs.len() + 2), "ondemand");
        assert_eq!(g.config_name(g.oracle_config()), "oracle");
    }
}
