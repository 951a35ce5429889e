//! Shared configuration and building blocks for the deep-clustering
//! baselines.
//!
//! All five deep baselines (SDCN, DFCN, DCRN, EDESC, SHGP) are built on the
//! same `nn`/`graph` substrate as TableDC itself, so quality differences
//! between methods come from their objectives — not from framework or
//! tuning asymmetries. Per §4.3 the baselines run with the same epoch
//! budget as TableDC and their originally published architectural choices
//! (Student-t kernel, Euclidean distances, K-means initialization). SDCN,
//! DFCN, DCRN and EDESC train in TableDC's own loop ([`Trainer::run`]),
//! so they also share its optimizer, health checks and diagnostics.

use autograd::{Tape, Var};
use nn::{ParamId, Params};
use rand::rngs::StdRng;
use tabledc::{ConvergenceVerdict, HealthConfig, History, Trained, Trainer};
use tensor::Matrix;

/// Hyper-parameters shared by the deep baselines.
#[derive(Debug, Clone)]
pub struct DeepConfig {
    /// Latent dimension of the AE/GCN representations.
    pub latent_dim: usize,
    /// AE pretraining epochs.
    pub pretrain_epochs: usize,
    /// Joint training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// KNN graph degree for the GCN-based methods.
    pub knn_k: usize,
}

impl Default for DeepConfig {
    fn default() -> Self {
        Self { latent_dim: 32, pretrain_epochs: 30, epochs: 100, lr: 1e-3, knn_k: 5 }
    }
}

impl DeepConfig {
    /// Compact encoder layout `[d, 256, 128, latent]` shared with TableDC's
    /// scaled configuration.
    pub fn encoder_dims(&self, input_dim: usize) -> Vec<usize> {
        vec![input_dim, 256, 128, self.latent_dim]
    }

    /// The shared training loop for one `method` fit into `k` clusters,
    /// with the health policy from `TABLEDC_HEALTH`.
    pub fn trainer(&self, method: &'static str, k: usize, centers: Option<ParamId>) -> Trainer {
        Trainer {
            method,
            k,
            epochs: self.epochs,
            lr: self.lr,
            health: HealthConfig::default(),
            centers,
            config: vec![
                ("k", k as f64),
                ("latent_dim", self.latent_dim as f64),
                ("lr", self.lr),
                ("pretrain_epochs", self.pretrain_epochs as f64),
                ("epochs", self.epochs as f64),
                ("knn_k", self.knn_k as f64),
            ],
        }
    }
}

/// Output of a baseline run.
#[derive(Debug, Clone)]
pub struct ClusterOutput {
    /// Hard labels per input row.
    pub labels: Vec<usize>,
    /// Per-epoch training record (empty for methods without a joint
    /// training loop).
    pub history: History,
    /// Numerical-health verdict of the run (policy from `TABLEDC_HEALTH`).
    pub health: obs::HealthReport,
    /// Structural convergence verdict (shared rules with TableDC).
    pub convergence: ConvergenceVerdict,
}

impl ClusterOutput {
    /// Output with labels only.
    pub fn from_labels(labels: Vec<usize>) -> Self {
        Self {
            labels,
            history: History::default(),
            health: obs::HealthReport::default(),
            convergence: ConvergenceVerdict::default(),
        }
    }
}

impl From<Trained<()>> for ClusterOutput {
    /// Labels are the argmax of the trained assignments.
    fn from(t: Trained<()>) -> Self {
        Self {
            labels: t.assign.argmax_rows(),
            history: t.history,
            health: t.health,
            convergence: t.convergence,
        }
    }
}

/// Student's-t soft assignments between latent points and centers with the
/// standard DEC normalization: `q_ij ∝ (1 + ‖z_i − c_j‖²/ν)^−(ν+1)/2`,
/// rows summing to 1 — the kernel used by SDCN/DFCN/DCRN (§2.1).
pub fn student_t_assignments(t: &Tape, z: Var, c: Var, nu: f64) -> Var {
    let d2 = t.sq_dist_cdist(z, c);
    let q_raw = t.pow_scalar(t.add_scalar(t.scale(d2, 1.0 / nu), 1.0), -(nu + 1.0) / 2.0);
    let sums = t.add_scalar(t.row_sums(q_raw), 1e-12);
    t.div_col_broadcast(q_raw, sums)
}

/// K-means cluster-center initialization on a latent matrix — the
/// initializer all the deep baselines use (§2.1 item iii).
pub fn kmeans_centers(z: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    clustering::KMeans::new(k).fit(z, rng).centroids
}

/// Binds `params`, runs `forward` to produce a scalar loss, backprops and
/// applies one Adam step. Returns the loss value. The supervised and
/// contrastive steps of SHGP and Starmie use it; the deep clustering
/// objectives train in [`Trainer::run`].
pub fn train_step(
    params: &mut Params,
    adam: &mut nn::Adam,
    forward: impl FnOnce(&Tape, &nn::BoundParams<'_>) -> Var,
) -> f64 {
    use nn::Optimizer;
    let tape = Tape::new();
    let bound = params.bind(&tape);
    let loss = forward(&tape, &bound);
    let value = tape.value(loss)[(0, 0)];
    let grads = tape.backward(loss);
    adam.step_from_tape(params, &bound, &grads);
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::random::{randn, rng};

    #[test]
    fn student_t_rows_are_distributions() {
        let t = Tape::new();
        let z = t.leaf(randn(10, 4, &mut rng(1)));
        let c = t.leaf(randn(3, 4, &mut rng(2)));
        let q = student_t_assignments(&t, z, c, 1.0);
        let v = t.value(q);
        for i in 0..10 {
            let s: f64 = v.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn student_t_prefers_closer_center() {
        let t = Tape::new();
        let z = t.leaf(Matrix::from_rows(&[&[0.0, 0.0]]));
        let c = t.leaf(Matrix::from_rows(&[&[0.5, 0.0], &[5.0, 0.0]]));
        let q = t.value(student_t_assignments(&t, z, c, 1.0));
        assert!(q[(0, 0)] > q[(0, 1)]);
    }

    #[test]
    fn train_step_reduces_simple_loss() {
        let mut params = Params::new();
        let w = params.register(Matrix::full(1, 1, 5.0));
        let mut adam = nn::Adam::new(0.1);
        let mut last = f64::INFINITY;
        for _ in 0..100 {
            last = train_step(&mut params, &mut adam, |t, b| t.sum(t.square(b.var(w))));
        }
        assert!(last < 0.1, "loss {last}");
    }
}
