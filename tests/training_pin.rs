//! Pins the training outputs of TableDC and the four deep baselines at a
//! small fixed configuration and seed: labels, and the exact bits of the
//! per-epoch `re_loss`/`kl_pq` series (for TableDC also the gradient-norm
//! series and hashes of `q` and `m`). Any change to a forward op, its
//! order, the Adam arithmetic or the RNG draw order shows up here.

use baselines::{ClusterOutput, Dcrn, DeepConfig, Dfcn, Edesc, Sdcn};
use datagen::{generate_mixture, Generated, MixtureConfig};
use tabledc::{TableDc, TableDcConfig};
use tensor::random::rng;
use tensor::Matrix;

fn data() -> Generated {
    generate_mixture(
        &MixtureConfig { n: 48, k: 3, dim: 10, separation: 3.0, ..Default::default() },
        &mut rng(31),
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// FNV-1a over the bits of every entry.
fn hash(m: &Matrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in m.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The per-epoch `(re_loss, kl_pq)` series of a baseline run.
fn series(out: &ClusterOutput) -> (&[f64], &[f64]) {
    (&out.history.re_loss, &out.history.kl_pq)
}

#[test]
fn tabledc_outputs_are_pinned() {
    let g = data();
    let cfg = TableDcConfig {
        latent_dim: 4,
        encoder_dims: Some(vec![10, 12, 4]),
        pretrain_epochs: 3,
        epochs: 5,
        ..TableDcConfig::new(3)
    };
    let (_, fit) = TableDc::fit(cfg, &g.x, &mut rng(32));
    #[rustfmt::skip]
    let labels = [
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 2, 0, 0, 0, 2, 0, 0, 2, 0, 2, 0, 0, 2, 2, 0, 1,
    ];
    assert_eq!(fit.labels, labels);
    #[rustfmt::skip]
    let re = [0x3ff02ef38f1a697e, 0x3ff0062fdffc908d, 0x3fefbc72472fdc62, 0x3fef6f82ba67575e, 0x3fef23ff9bba3986];
    #[rustfmt::skip]
    let kl = [0x3fb3d650ac2726d4, 0x3fb3b60c0730c537, 0x3fb397e14dff9ec4, 0x3fb37bb58339c816, 0x3fb362784510a4ea];
    #[rustfmt::skip]
    let grad = [0x3fe84a1736fe5de8, 0x3fe82611a45a6963, 0x3fe73872b65c16ae, 0x3fe65c454ed92e79, 0x3fe5fa645adb11b4];
    assert_eq!(bits(&fit.history.re_loss), re);
    assert_eq!(bits(&fit.history.kl_pq), kl);
    assert_eq!(bits(&fit.history.grad_norm), grad);
    assert_eq!(hash(&fit.q), 0x8f0c1d653c0c183b, "q bits");
    assert_eq!(hash(&fit.m), 0x785ed3a18939a19b, "m bits");
}

/// `(method, labels, re_loss bits, kl_pq bits)` of each baseline.
#[rustfmt::skip]
const BASELINES: [(&str, [usize; 48], [u64; 5], [u64; 5]); 4] = [
    ("sdcn",
     [0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     [0x3fee62e531b95aef, 0x3fed270800ea9c30, 0x3feba4a497125fc3, 0x3fe9d0d2268c89e9, 0x3fe7b47cbc7dbfdd],
     [0x3fa3927385a8c805, 0x3fa913b106f91168, 0x3facc677a2e179e8, 0x3faead3368f6b43f, 0x3faf03148176c271]),
    ("dfcn",
     [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     [0x3fee62e531b95aef, 0x3fed27caebe1ea5e, 0x3febab3b832b960c, 0x3fe9df96dfb410ec, 0x3fe7ca3a27c99e12],
     [0x3f83acf27af753d1, 0x3f97b58a73738bd4, 0x3fa38fe5a185f670, 0x3fa9eb9aac48dc38, 0x3fae2f9c5df1ca40]),
    ("dcrn",
     [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 1, 1,
      0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     [0x3fee62e531b95aef, 0x3fedd17597197df0, 0x3fed37d11f08616a, 0x3fec4597262260e6, 0x3feb1c084213d660],
     [0x3f96a5c0a64173c4, 0x3f93190c18f41ba2, 0x3f8c52236426f841, 0x3f91bd772e9311a8, 0x3f958a9013ea2805]),
    ("edesc",
     [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 2, 0, 0, 2, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 2, 1, 1, 1],
     [0x3fee62e531b95aef, 0x3fed2a50046830ea, 0x3febaeb9004aa41f, 0x3fe9e303c610fc97, 0x3fe7cd61c8dbac40],
     [0x3f0b934fbf408525, 0x3f16e968a20ece88, 0x3f2382c336a48618, 0x3f308d45e954b0fe, 0x3f3b85f10dd3d04f]),
];

#[test]
fn baseline_outputs_are_pinned() {
    let g = data();
    let cfg = DeepConfig { latent_dim: 4, pretrain_epochs: 3, epochs: 5, ..Default::default() };
    for (method, labels, re, kl) in BASELINES {
        let out = match method {
            "sdcn" => Sdcn::new(cfg.clone()).fit(&g.x, 3, &mut rng(33)),
            "dfcn" => Dfcn::new(cfg.clone()).fit(&g.x, 3, &mut rng(33)),
            "dcrn" => Dcrn::new(cfg.clone()).fit(&g.x, 3, &mut rng(33)),
            "edesc" => Edesc::new(cfg.clone()).fit(&g.x, 3, &mut rng(33)),
            _ => unreachable!("unknown method {method}"),
        };
        let (re_loss, kl_pq) = series(&out);
        assert_eq!(out.labels, labels, "{method} labels");
        assert_eq!(bits(re_loss), re, "{method} re_loss bits");
        assert_eq!(bits(kl_pq), kl, "{method} kl_pq bits");
    }
}
