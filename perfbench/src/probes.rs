//! Per-layer metrics of a traced run. Each layer is timed from outside, by
//! calling the crate's public functions at the shapes the workload uses;
//! nothing inside the program is instrumented.

use std::hint::black_box;
use std::rc::Rc;

use autograd::Tape;
use baselines::common::kmeans_centers;
use baselines::{Dfcn, Sdcn};
use nn::loss::{kl_div, mse};
use nn::{Activation, Adam, Autoencoder, Optimizer, Params};
use runtime::ThreadPool;
use tabledc::{target_distribution, DiagnosticsTracker, TableDc};
use tensor::random::{randn, rng};
use tensor::Matrix;

use crate::spans::Spans;
use crate::stats;
use crate::workloads::{Input, Measured, Metric, Workload};

/// Width of the first encoder layer of every autoencoder in the workloads
/// (`d → 256 → 128 → latent`).
const ENC0_WIDTH: usize = 256;
/// Pretraining minibatch size (`Autoencoder::pretrain`).
const MINIBATCH: usize = 64;

/// Calls `f` in spans named `name` until it ran at least `min_reps` times
/// and for at least `min_secs` (at most 500 times); returns the median
/// call in seconds.
fn sample(
    spans: &Spans,
    name: &'static str,
    min_reps: usize,
    min_secs: f64,
    mut f: impl FnMut(),
) -> f64 {
    let (mut reps, mut total) = (0, 0.0);
    while reps < min_reps || (total < min_secs && reps < 500) {
        total += spans.time(name, &mut f).1;
        reps += 1;
    }
    stats::median(&spans.durations(name))
}

fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    2.0 * (m * k * n) as f64 / secs / 1e9
}

/// Pretrain and init of `input`'s fit, replayed from outside with the fit's
/// own seed and RNG order. Returns `(pretrain_s, init_s, other_s)`, where
/// `other_s` is any further phase replayed (the KNN graph of SDCN). Run
/// just before fit 0, so both see the same state of the machine and the
/// replay, not the fit, pays the process's cold start.
pub fn replay(w: Workload, input: &Input, spans: &Spans) -> (f64, f64, f64) {
    let x = input.x.standardize_cols();
    let mut r = rng(input.seed);
    let mut params = Params::new();
    match w {
        Workload::Tus | Workload::LargeK => {
            // TableDc::fit: compact AE, pretrain, Birch on the latent.
            let cfg = w.tabledc_config(input);
            let ae = Autoencoder::compact(&mut params, x.cols(), cfg.latent_dim, &mut r);
            let pretrain = spans
                .time("nn.pretrain", || {
                    ae.pretrain(&mut params, &x, cfg.pretrain_epochs, cfg.lr)
                })
                .1;
            let z0 = ae.embed(&params, &x);
            let init = spans
                .time("clustering.init", || {
                    black_box(cfg.init.centers(&z0, input.k, &mut r))
                })
                .1;
            (pretrain, init, 0.0)
        }
        Workload::Web => {
            // Sdcn::fit: KNN graph, AE, pretrain, GCN layers, K-means.
            let cfg = Workload::deep_config();
            let knn = cfg.knn_k.min(x.rows() - 1).max(1);
            let graph = spans
                .time("graph.adjacency.replay", || {
                    black_box(graph::gcn_adjacency(&x, knn))
                })
                .1;
            let dims = cfg.encoder_dims(x.cols());
            let ae = Autoencoder::new(&mut params, &dims, &mut r);
            let pretrain = spans
                .time("nn.pretrain", || {
                    ae.pretrain(&mut params, &x, cfg.pretrain_epochs, cfg.lr)
                })
                .1;
            let mut gcn_dims = dims.clone();
            gcn_dims.push(input.k);
            for d in gcn_dims.windows(2) {
                graph::GcnLayer::new(&mut params, d[0], d[1], Activation::Linear, &mut r);
            }
            let z0 = ae.embed(&params, &x);
            let init = spans
                .time("clustering.init", || {
                    black_box(kmeans_centers(&z0, input.k, &mut r))
                })
                .1;
            (pretrain, init, graph)
        }
    }
}

/// One full-batch TableDC objective (Algorithm 1, lines 4–10) on `tape`,
/// built from the public `nn`/`tabledc` calls the training loop makes.
fn tabledc_objective(
    tape: &Tape,
    model: &TableDc,
    ae: &Autoencoder,
    params: &Params,
    x: &Matrix,
) -> autograd::Var {
    let cfg = model.config();
    let bound = params.bind(tape);
    let xv = tape.constant(x.clone());
    let z = ae.encode(&bound, xv);
    let recon = ae.decode(&bound, z);
    let c = tape.leaf(model.centers());
    let d2 = cfg
        .distance
        .sq_cdist(tape, z, c)
        .expect("scaled-identity Mahalanobis never fails");
    let q_raw = cfg.kernel.apply(tape, d2);
    let sums = tape.add_scalar(tape.row_sums(q_raw), cfg.eps);
    let q = tape.div_col_broadcast(q_raw, sums);
    let m = tape.softmax_rows(q);
    let p = target_distribution(&tape.value(q));
    let ce = kl_div(tape, &p, m);
    let re = mse(tape, xv, recon);
    tape.add(tape.scale(ce, cfg.alpha), re)
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    w: Workload,
    inputs: &[Input],
    measured: &Measured,
    (pretrain, init, other): (f64, f64, f64),
    spans: &Spans,
) -> Vec<Metric> {
    let (tabledc, fit_s) = (&measured.tabledc, &measured.fit_s);
    let mut out: Vec<Metric> = Vec::new();
    let global = runtime::global();
    let serial = ThreadPool::new(1);

    // datagen: one input per call during set-up.
    let generate = spans.durations("datagen.generate");
    out.push(("datagen.generate_ms", stats::median(&generate) * 1e3, "ms"));

    // Phases of fit 0, replayed from outside.
    let input = &inputs[0];
    out.push(("nn.pretrain_s", pretrain, "s"));
    out.push(("clustering.init_s", init, "s"));

    // The run's TableDC fits: training time, epochs, waste.
    let (model, fit, fit_input) = tabledc
        .first()
        .map(|(m, f, i)| (m, f, &inputs[*i]))
        .expect("a TableDC fit");
    let train: Vec<f64> = tabledc
        .iter()
        .map(|(_, f, _)| f.history.epoch_ms.iter().sum::<f64>() / 1e3)
        .collect();
    let epochs: Vec<f64> = tabledc
        .iter()
        .flat_map(|(_, f, _)| f.history.epoch_ms.iter().copied())
        .collect();
    let wasted: Vec<f64> = tabledc
        .iter()
        .map(|(_, f, _)| {
            let run = f.history.epoch_ms.len();
            f.convergence.epoch.map_or(0, |e| run.saturating_sub(e + 1)) as f64
        })
        .collect();
    out.push(("tabledc.train_s", stats::median(&train), "s"));
    out.push(("tabledc.epoch_ms.p50", stats::median(&epochs), "ms"));
    let tail = stats::tail_percentile(epochs.len(), 10);
    out.push((
        "tabledc.epoch_ms.tail",
        stats::percentile(&epochs, tail),
        "ms",
    ));
    out.push((
        "tabledc.epochs_after_convergence",
        wasted.iter().sum::<f64>() / wasted.len() as f64,
        "count",
    ));
    eprintln!(
        "tabledc.epoch_ms.tail is p{tail:.1} of {} epochs",
        epochs.len()
    );

    // What the replayed phases leave of fit 0: TableDC's training loop on
    // the TableDC workloads; SDCN's training loop on web tables, whose
    // phases are hidden inside the crate.
    let unattributed = match w {
        Workload::Tus | Workload::LargeK => fit_s[0] - pretrain - init - train[0],
        Workload::Web => spans.durations("baselines.sdcn.fit")[0] - other - pretrain - init,
    };
    out.push(("fit.unattributed_s", unattributed, "s"));
    out.push(("fit.traced_s", stats::median(fit_s), "s"));

    // runtime: pool counters around fit 0.
    let (before, after) = measured.pool.expect("fit 0 ran");
    let busy = (after.busy - before.busy).as_secs_f64();
    out.push((
        "runtime.tasks",
        (after.tasks_executed - before.tasks_executed) as f64,
        "count",
    ));
    out.push((
        "runtime.busy_share",
        busy / (fit_s[0] * global.threads() as f64),
        "ratio",
    ));

    // tensor: the first encoder layer at full batch and at minibatch size.
    let x = fit_input.x.standardize_cols();
    let (n, d) = x.shape();
    let mut r = rng(input.seed ^ 0x5EED);
    let w0 = randn(d, ENC0_WIDTH, &mut r);
    let dy = randn(n, ENC0_WIDTH, &mut r);
    let xt = x.transpose();
    let mb = x.select_rows(&(0..MINIBATCH.min(n)).collect::<Vec<_>>());
    let fwd = sample(spans, "tensor.matmul.enc0_fwd", 5, 0.3, || {
        black_box(tensor::par::matmul(global, &x, &w0));
    });
    let fwd_serial = sample(spans, "tensor.matmul.enc0_fwd.serial", 5, 0.3, || {
        black_box(tensor::par::matmul(&serial, &x, &w0));
    });
    let wgrad = sample(spans, "tensor.matmul.enc0_wgrad", 5, 0.3, || {
        black_box(tensor::par::matmul(global, &xt, &dy));
    });
    let mini = sample(spans, "tensor.matmul.minibatch", 20, 0.3, || {
        black_box(tensor::par::matmul(global, &mb, &w0));
    });
    let mini_serial = sample(spans, "tensor.matmul.minibatch.serial", 20, 0.3, || {
        black_box(tensor::par::matmul(&serial, &mb, &w0));
    });
    out.push((
        "tensor.matmul.enc0_fwd.gflops",
        gflops(n, d, ENC0_WIDTH, fwd),
        "GFLOP/s",
    ));
    out.push((
        "tensor.matmul.enc0_wgrad.gflops",
        gflops(d, n, ENC0_WIDTH, wgrad),
        "GFLOP/s",
    ));
    out.push((
        "tensor.matmul.minibatch.gflops",
        gflops(mb.rows(), d, ENC0_WIDTH, mini),
        "GFLOP/s",
    ));
    out.push(("runtime.pool_speedup.enc0_fwd", fwd_serial / fwd, "ratio"));
    out.push((
        "runtime.pool_speedup.minibatch",
        mini_serial / mini,
        "ratio",
    ));

    // tensor + tabledc: the n×K clustering head of the fitted model.
    let z = model.embed(&fit_input.x);
    let centers = model.centers();
    let cdist = sample(spans, "tensor.cdist.head", 5, 0.3, || {
        black_box(tensor::par::sq_euclidean_cdist(global, &z, &centers));
    });
    let softmax = sample(spans, "tensor.softmax.head", 5, 0.3, || {
        black_box(tensor::par::softmax_rows(global, &fit.q));
    });
    let target = sample(spans, "tabledc.target_distribution", 5, 0.3, || {
        black_box(target_distribution(&fit.q));
    });
    let mut tracker = DiagnosticsTracker::new();
    tracker.observe(&fit.q, Some(&centers));
    let diagnostics = sample(spans, "tabledc.diagnostics", 5, 0.3, || {
        black_box(tracker.observe(&fit.q, Some(&centers)));
    });
    out.push(("tensor.cdist.head_ms", cdist * 1e3, "ms"));
    out.push(("tensor.softmax.head_ms", softmax * 1e3, "ms"));
    out.push(("tabledc.target_distribution_ms", target * 1e3, "ms"));
    out.push(("tabledc.diagnostics_ms", diagnostics * 1e3, "ms"));
    out.push((
        "tabledc.predict_call_ms",
        stats::median(&spans.durations("tabledc.predict")) * 1e3,
        "ms",
    ));

    // autograd: one full-batch TableDC objective, forward then backward.
    let mut params = Params::new();
    let ae = Autoencoder::compact(&mut params, d, model.config().latent_dim, &mut r);
    let (mut reps, mut total) = (0, 0.0);
    while reps < 3 || (total < 1.0 && reps < 50) {
        let tape = Tape::new();
        let (loss, f) = spans.time("autograd.forward", || {
            tabledc_objective(&tape, model, &ae, &params, &x)
        });
        let b = spans
            .time("autograd.backward", || black_box(tape.backward(loss)))
            .1;
        total += f + b;
        reps += 1;
    }
    out.push((
        "autograd.forward_ms",
        stats::median(&spans.durations("autograd.forward")) * 1e3,
        "ms",
    ));
    out.push((
        "autograd.backward_ms",
        stats::median(&spans.durations("autograd.backward")) * 1e3,
        "ms",
    ));

    // nn: one Adam step over the autoencoder after a minibatch backward.
    let tape = Tape::new();
    let bound = params.bind(&tape);
    let xv = tape.constant(mb.clone());
    let loss = mse(&tape, xv, ae.decode(&bound, ae.encode(&bound, xv)));
    let grads = tape.backward(loss);
    let mut adam = Adam::new(1e-3);
    let step = sample(spans, "nn.adam_step", 20, 0.2, || {
        adam.step_from_tape(&mut params, &bound, &grads)
    });
    out.push(("nn.adam_step_us", step * 1e6, "us"));

    // graph: the KNN adjacency and one GCN layer at the workload's shape.
    let knn = Workload::deep_config().knn_k.min(n - 1).max(1);
    let adjacency = sample(spans, "graph.adjacency", 3, 0.3, || {
        black_box(graph::gcn_adjacency(&x, knn));
    });
    let adj = Rc::new(graph::gcn_adjacency(&x, knn));
    let mut gparams = Params::new();
    let layer = graph::GcnLayer::new(&mut gparams, d, ENC0_WIDTH, Activation::Linear, &mut r);
    let gcn = sample(spans, "graph.gcn_forward", 5, 0.3, || {
        let tape = Tape::new();
        let bound = gparams.bind(&tape);
        let h = layer.forward(&bound, &adj, tape.constant(x.clone()));
        black_box(tape.value(h));
    });
    out.push(("graph.adjacency_ms", adjacency * 1e3, "ms"));
    out.push(("graph.gcn_forward_ms", gcn * 1e3, "ms"));

    // baselines: the web workload's own fits; elsewhere a short fit (one
    // pretraining epoch, two joint epochs) on fit 0's input, so the layer
    // is still timed at that workload's shape.
    let (sdcn, dfcn) = if w == Workload::Web {
        (
            spans.durations("baselines.sdcn.fit"),
            spans.durations("baselines.dfcn.fit"),
        )
    } else {
        let cfg = baselines::DeepConfig {
            pretrain_epochs: 1,
            epochs: 2,
            ..Workload::deep_config()
        };
        let (k, seed) = (input.k, input.seed);
        let s = spans
            .time("baselines.sdcn.fit", || {
                black_box(Sdcn::new(cfg.clone()).fit(&input.x, k, &mut rng(seed)))
            })
            .1;
        let f = spans
            .time("baselines.dfcn.fit", || {
                black_box(Dfcn::new(cfg).fit(&input.x, k, &mut rng(seed)))
            })
            .1;
        (vec![s], vec![f])
    };
    out.push(("baselines.sdcn.fit_s", stats::median(&sdcn), "s"));
    out.push(("baselines.dfcn.fit_s", stats::median(&dfcn), "s"));
    out
}
