//! One module per paper table/figure. Every function takes [`RunOptions`]
//! and returns a printable result, so the `repro` binary and the
//! integration tests drive the same code.

pub mod ablations;
pub mod figures;
pub mod tables;

use datagen::{Scale, Task};

use crate::methods::Budget;

/// Options shared by every experiment.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Workload scale (paper-size or CPU-friendly).
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
    /// Multiplier on the joint-training epoch count (1.0 = the paper's
    /// §4.3 budget). Lower values trade fidelity for wall-clock.
    pub epoch_factor: f64,
    /// When set, replaces the per-task pretraining epochs — used by smoke
    /// tests, which otherwise inherit the full (expensive) pretraining
    /// budget.
    pub pretrain_override: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self { scale: Scale::Scaled, seed: 42, epoch_factor: 1.0, pretrain_override: None }
    }
}

impl RunOptions {
    /// A fast configuration for smoke tests.
    pub fn quick() -> Self {
        Self {
            scale: Scale::Scaled,
            seed: 42,
            epoch_factor: 0.15,
            pretrain_override: Some(5),
        }
    }

    /// The per-task training budget under these options.
    pub fn budget(&self, task: Task) -> Budget {
        let mut budget = Budget::for_task(task).scaled(self.epoch_factor);
        if let Some(p) = self.pretrain_override {
            budget.pretrain_epochs = p;
        }
        budget
    }
}
