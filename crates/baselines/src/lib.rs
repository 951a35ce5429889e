//! # baselines — the methods TableDC is evaluated against
//!
//! Deep-clustering baselines (§4.1.2) reimplemented on the shared
//! `nn`/`graph` substrate — [`sdcn`], [`dfcn`], [`dcrn`], [`edesc`],
//! [`shgp`] — and the bespoke task-specific comparators of §4.7 —
//! [`bespoke::D3l`], [`bespoke::Starmie`], [`bespoke::Jedai`],
//! [`bespoke::D4`]. Standard-clustering baselines (K-means, DBSCAN, Birch)
//! live in `crates/clustering`.
//!
//! Per-method simplifications relative to the reference implementations are
//! documented in DESIGN.md §1; each keeps the original's loss family and
//! architecture shape so the comparison measures the same algorithmic
//! trade-offs the paper measures.

pub mod bespoke;
pub mod common;
pub mod dcrn;
pub mod dfcn;
pub mod edesc;
pub mod sdcn;
pub mod shgp;

pub use bespoke::{D3l, D4, Jedai, JedaiMetric, Starmie};
pub use common::{ClusterOutput, DeepConfig};
pub use dcrn::Dcrn;
pub use dfcn::Dfcn;
pub use edesc::Edesc;
pub use sdcn::Sdcn;
pub use shgp::Shgp;

#[cfg(test)]
mod tests {
    use clustering::metrics::num_clusters;
    use datagen::{generate_mixture, MixtureConfig};
    use tabledc::{TableDc, TableDcConfig};
    use tensor::random::rng;

    use super::*;

    /// With no joint-training epochs every deep method still assigns from
    /// one forward pass of its initialized model, not from a zero matrix
    /// (whose argmax puts every row in cluster 0). The methods whose
    /// assignments measure distances to initialized centers recover the
    /// three clusters; SDCN's untrained GCN and EDESC's random subspace
    /// bases need training to separate them.
    #[test]
    fn zero_epochs_assign_from_the_initialized_model() {
        let g = generate_mixture(
            &MixtureConfig { n: 90, k: 3, dim: 12, separation: 4.0, ..Default::default() },
            &mut rng(1),
        );
        let cfg = DeepConfig { latent_dim: 8, pretrain_epochs: 10, epochs: 0, ..Default::default() };
        let tabledc_cfg = TableDcConfig {
            latent_dim: 8,
            pretrain_epochs: 10,
            epochs: 0,
            ..TableDcConfig::new(3)
        };
        let runs = [
            ("tabledc", true, TableDc::fit(tabledc_cfg, &g.x, &mut rng(2)).1.labels),
            ("sdcn", false, Sdcn::new(cfg.clone()).fit(&g.x, 3, &mut rng(2)).labels),
            ("dfcn", true, Dfcn::new(cfg.clone()).fit(&g.x, 3, &mut rng(2)).labels),
            ("dcrn", true, Dcrn::new(cfg.clone()).fit(&g.x, 3, &mut rng(2)).labels),
            ("edesc", false, Edesc::new(cfg).fit(&g.x, 3, &mut rng(2)).labels),
        ];
        for (method, center_based, labels) in runs {
            assert_eq!(labels.len(), 90, "{method}");
            assert!(labels.iter().any(|&l| l != 0), "{method} assigned from a zero matrix");
            if center_based {
                assert_eq!(num_clusters(&labels), 3, "{method}");
            }
        }
    }
}
