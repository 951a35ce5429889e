//! The joint-training loop shared by TableDC (Algorithm 1, lines 3–12) and
//! the deep baselines SDCN, DFCN, DCRN and EDESC.
//!
//! The paper trains every deep method with the same optimizer and epoch
//! budget (§4.3), so they also share one loop. A method supplies only its
//! objective: a closure over `(tape, bound params, epoch)` returning the
//! loss [`Var`], the `re_loss`/`kl_pq` values, and the assignment matrix
//! its labels come from ([`Objective`]). [`Trainer::run`] owns the rest:
//! the tape and parameter binding, NaN/Inf checks on the scalars and the
//! assignments *before* backward, the instrumented Adam step with its
//! gradient checks, the [`History`], the structural diagnostics and
//! convergence verdict, the `train.*` trace events, and the strict-policy
//! abort with its diagnostic dump.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use autograd::{Tape, Var};
use nn::{Adam, BoundParams, Optimizer, ParamId, Params};
use obs::health::{HealthMonitor, HealthReport, Policy};
use tensor::Matrix;

use crate::diagnostics::{self, ConvergenceVerdict, DiagnosticsTracker, VerdictRules};

/// Health-monitoring knobs of a training run.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Explicit policy override; `None` reads `TABLEDC_HEALTH`
    /// (off/warn/strict, defaulting to warn).
    pub policy: Option<Policy>,
    /// Directory diagnostic dumps are written to on a strict-policy abort.
    pub dump_dir: String,
    /// The run's base RNG seed, recorded in dumps so an abort is
    /// reproducible. Metadata only — it never feeds the RNG.
    pub run_seed: Option<u64>,
    /// Fault injection: at the start of this epoch, poison the first
    /// cluster-center entry with NaN. In
    /// [`TableDc::fit_best_of`](crate::TableDc::fit_best_of) only the
    /// *first* restart is poisoned, so best-of-N recovery is testable.
    pub nan_epoch: Option<usize>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self { policy: None, dump_dir: "results/dumps".to_string(), run_seed: None, nan_epoch: None }
    }
}

/// Per-epoch training record — the raw series behind Figure 5.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Reconstruction loss `re_loss` per epoch (Eq. 12).
    pub re_loss: Vec<f64>,
    /// Clustering loss `KL(p‖m)` per epoch (Eq. 10). Empty for methods
    /// whose clustering loss is `KL(p‖q)` itself.
    pub ce_loss: Vec<f64>,
    /// Reported divergence `KL(p‖q)` per epoch (the quantity plotted in
    /// Figure 5's right panel).
    pub kl_pq: Vec<f64>,
    /// Wall-clock milliseconds per joint-training epoch. Always recorded
    /// (a monotonic-clock read per epoch), independent of whether the
    /// `TABLEDC_TRACE` event sink is active.
    pub epoch_ms: Vec<f64>,
    /// Global gradient L2 norm per epoch (across all parameters).
    pub grad_norm: Vec<f64>,
    /// Update-to-parameter-norm ratio `‖Δθ‖/‖θ‖` per epoch.
    pub update_ratio: Vec<f64>,
    /// Normalized entropy of the hard-label cluster shares per epoch
    /// (see [`crate::diagnostics::EpochDiagnostics::share_entropy`]).
    pub share_entropy: Vec<f64>,
    /// Smallest cluster share per epoch.
    pub min_share: Vec<f64>,
    /// Largest cluster share per epoch (collapse detector).
    pub max_share: Vec<f64>,
    /// Fraction of rows whose hard label changed vs the previous epoch.
    pub delta_label_frac: Vec<f64>,
    /// Mean `top1 − top2` assignment margin per epoch.
    pub mean_margin: Vec<f64>,
    /// Mean L2 centroid step vs the previous epoch.
    pub centroid_drift: Vec<f64>,
}

impl History {
    /// Pushes one epoch of structural diagnostics (the loss/gradient
    /// series are pushed individually by the training loop).
    pub fn push_diagnostics(&mut self, d: &diagnostics::EpochDiagnostics) {
        self.share_entropy.push(d.share_entropy);
        self.min_share.push(d.min_share);
        self.max_share.push(d.max_share);
        self.delta_label_frac.push(d.delta_label_frac);
        self.mean_margin.push(d.mean_margin);
        self.centroid_drift.push(d.centroid_drift);
    }
}

/// One epoch of a method's objective, built on the epoch's tape.
pub struct Objective<T> {
    /// The scalar loss the step descends.
    pub loss: Var,
    /// Reconstruction loss value.
    pub re_loss: f64,
    /// Clustering loss `KL(p‖m)`, for a method (TableDC) that trains on a
    /// distribution other than `q`.
    pub ce_loss: Option<f64>,
    /// `KL(p‖q)` value.
    pub kl_pq: f64,
    /// The `n × k` soft assignments the method's labels come from.
    pub assign: Matrix,
    /// Anything else the method keeps from its last completed epoch.
    pub keep: T,
}

/// One method's training run: its name, budget and health settings.
pub struct Trainer {
    /// Method name, stamped as `method` on every `train.*` event and used
    /// as the prefix of its span, histograms and series.
    pub method: &'static str,
    /// Number of clusters.
    pub k: usize,
    /// Joint-training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Health policy, dump location and fault injection.
    pub health: HealthConfig,
    /// The cluster-center parameter, if the method has one: poisoned by
    /// [`HealthConfig::nan_epoch`] and watched for centroid drift.
    pub centers: Option<ParamId>,
    /// `(name, value)` pairs written as the dump's `config` object.
    pub config: Vec<(&'static str, f64)>,
}

/// What [`Trainer::run`] hands back.
pub struct Trained<T> {
    /// Assignments of the last completed epoch; of a forward pass from the
    /// initial parameters when `epochs == 0`; zeros when the first epoch
    /// aborted.
    pub assign: Matrix,
    /// The objective's `keep` alongside `assign` (`None` when the first
    /// epoch aborted).
    pub keep: Option<T>,
    /// Per-epoch record of the completed epochs.
    pub history: History,
    /// Numerical-health verdict. On a strict-policy abort the verdict is
    /// `Aborted`, training stopped in that epoch, and `dump_path` names
    /// the diagnostic dump.
    pub health: HealthReport,
    /// Structural convergence verdict.
    pub convergence: ConvergenceVerdict,
}

impl Trainer {
    /// Trains `params` for the configured epochs, calling `objective` once
    /// per epoch. With zero epochs it runs one forward pass, takes no
    /// step, and assigns from it.
    pub fn run<T>(
        &self,
        params: &mut Params,
        mut objective: impl FnMut(&Tape, &BoundParams<'_>, usize) -> Objective<T>,
    ) -> Trained<T> {
        let method = self.method;
        let _train_timer = obs::span(format!("{method}.train"));
        let mut adam = Adam::new(self.lr);
        let mut history = History::default();
        let mut tracker = DiagnosticsTracker::new();
        let fit_id = diagnostics::next_fit_id();
        let reg = obs::registry();
        let epoch_hist = reg.histogram(&format!("{method}.epoch_ms"));
        let re_series = reg.series(&format!("{method}.re_loss"));
        let kl_series = reg.series(&format!("{method}.kl_pq"));
        let grad_series = reg.series(&format!("{method}.grad_norm"));
        let diag_prefix = format!("{method}.diag");
        let mut monitor = match self.health.policy {
            Some(p) => HealthMonitor::new(p),
            None => HealthMonitor::from_env(),
        };
        // The last completed epoch's assignments and `keep`, and the shape
        // of the assignments for the zeros an abort in epoch 0 returns.
        let mut last = None;
        let mut shape = (0, 0);

        if self.epochs == 0 {
            let tape = Tape::new();
            let out = objective(&tape, &params.bind(&tape), 0);
            last = Some((out.assign, out.keep));
        }

        for epoch in 0..self.epochs {
            let epoch_start = Instant::now();
            if let Some(c) = self.centers.filter(|_| self.health.nan_epoch == Some(epoch)) {
                // Fault injection (tests/diagnostics): poison one center
                // entry; the NaN propagates through the assignments and
                // the losses exactly like a real divergence would.
                params.get_mut(c)[(0, 0)] = f64::NAN;
            }
            let tape = Tape::new();
            let bound = params.bind(&tape);
            let out = objective(&tape, &bound, epoch);
            let loss = tape.value(out.loss)[(0, 0)];
            shape = out.assign.shape();

            // Health checks run before the history pushes and the update so
            // a strict-policy abort leaves neither a poisoned history entry
            // nor a poisoned optimizer state behind.
            let scalars = [
                ("re_loss", Some(out.re_loss)),
                ("ce_loss", out.ce_loss),
                ("kl_pq", Some(out.kl_pq)),
                ("loss", Some(loss)),
            ];
            let mut abort = scalars
                .into_iter()
                .filter_map(|(name, v)| Some((name, v?)))
                .find(|&(name, v)| monitor.check_scalar(name, v, epoch as u64).should_abort())
                .map(|(name, _)| name.to_string());
            if abort.is_none()
                && monitor.check_slice("q", out.assign.as_slice(), epoch as u64).should_abort()
            {
                abort = Some("q".to_string());
            }
            if let Some(tensor) = abort {
                self.abort(&mut monitor, params, &history, &tensor, epoch);
                break;
            }

            // Backprop and update, instrumented with gradient and
            // update-norm telemetry.
            let grads = tape.backward(out.loss);
            let stats = adam.step_from_tape_instrumented(params, &bound, &grads);
            if let Some(id) = stats.nonfinite_grad {
                let tensor = format!("grad.{}", params.name(id));
                let norm =
                    stats.grad_norms.iter().find(|(i, _)| *i == id).map_or(f64::NAN, |&(_, n)| n);
                if monitor.check_scalar(&tensor, norm, epoch as u64).should_abort() {
                    self.abort(&mut monitor, params, &history, &tensor, epoch);
                    break;
                }
            }
            stats.record(params);
            stats.emit_event(epoch as u64);

            if let Some(ce) = out.ce_loss {
                history.ce_loss.push(ce);
            }
            history.re_loss.push(out.re_loss);
            history.kl_pq.push(out.kl_pq);
            history.grad_norm.push(stats.global_grad_norm);
            history.update_ratio.push(stats.update_ratio());

            // Per-epoch telemetry: the convergence signal behind Figure 5
            // plus the structural diagnostics (cluster shares, churn,
            // margin, centroid drift). Pure observation — nothing here
            // feeds back into training.
            let diag = tracker.observe(&out.assign, self.centers.map(|c| params.get(c)));
            history.push_diagnostics(&diag);
            re_series.record(out.re_loss);
            kl_series.record(out.kl_pq);
            grad_series.record(stats.global_grad_norm);
            diagnostics::record_series(&diag_prefix, &diag);

            let epoch_ms = epoch_start.elapsed().as_secs_f64() * 1e3;
            history.epoch_ms.push(epoch_ms);
            epoch_hist.record(epoch_ms);
            let mut event = obs::event("train.epoch")
                .str("method", method)
                .u64("fit", fit_id)
                .u64("epoch", epoch as u64)
                .f64("re_loss", out.re_loss);
            if let Some(ce) = out.ce_loss {
                event = event.f64("ce_loss", ce);
            }
            event
                .f64("kl_pq", out.kl_pq)
                .f64("loss", loss)
                .f64("delta_label_frac", diag.delta_label_frac)
                .f64("grad_norm", stats.global_grad_norm)
                .f64("update_ratio", stats.update_ratio())
                .f64("epoch_ms", epoch_ms)
                .emit();
            diagnostics::emit_diag_event(method, fit_id, &diag);

            last = Some((out.assign, out.keep));
        }

        let convergence = tracker.verdict(self.k, &VerdictRules::default());
        obs::event("train.convergence")
            .str("method", method)
            .u64("fit", fit_id)
            .str("status", convergence.status.as_str())
            .i64("epoch", convergence.epoch.map_or(-1, |e| e as i64))
            .str("rule", &convergence.rule)
            .emit();
        let (assign, keep) = match last {
            Some((assign, keep)) => (assign, Some(keep)),
            None => (Matrix::zeros(shape.0, shape.1), None),
        };
        Trained {
            assign,
            keep,
            history,
            health: monitor.report(),
            convergence,
        }
    }

    /// Strict-policy abort path: writes the diagnostic dump, emits the
    /// `health.abort` event followed by the `health.dump` event naming the
    /// dump file (an invariant `trace_check` enforces), and marks the
    /// monitor aborted. The caller breaks out of the epoch loop.
    fn abort(
        &self,
        monitor: &mut HealthMonitor,
        params: &Params,
        history: &History,
        tensor: &str,
        epoch: usize,
    ) {
        let path = self.write_dump(monitor, params, history, tensor, epoch);
        if let Some(p) = &path {
            obs::event("health.abort")
                .str("method", self.method)
                .str("tensor", tensor)
                .u64("epoch", epoch as u64)
                .str("policy", monitor.policy().as_str())
                .emit();
            obs::event("health.dump").str("path", p).emit();
        }
        monitor.mark_aborted(path);
    }

    /// Writes a strict-abort diagnostic dump: offending tensor, policy,
    /// seed, config summary, recorded violations, per-parameter L2 norms,
    /// and the last 8 epochs of metric history. Returns the path, or
    /// `None` if neither the configured dump dir nor the system temp dir
    /// is writable.
    fn write_dump(
        &self,
        monitor: &HealthMonitor,
        params: &Params,
        history: &History,
        tensor: &str,
        epoch: usize,
    ) -> Option<String> {
        use obs::json::{escape_into as esc, number_into as num};
        let mut out = String::from("{\"method\": ");
        esc(&mut out, self.method);
        out.push_str(", \"tensor\": ");
        esc(&mut out, tensor);
        let _ = write!(out, ", \"epoch\": {epoch}, \"policy\": ");
        esc(&mut out, monitor.policy().as_str());
        let _ = match self.health.run_seed {
            Some(s) => write!(out, ", \"seed\": {s}"),
            None => write!(out, ", \"seed\": null"),
        };
        out.push_str(",\n\"config\": ");
        json_map(&mut out, self.config.iter().copied());
        out.push_str(",\n\"violations\": [");
        for (i, v) in monitor.violations().iter().enumerate() {
            out.push_str(if i > 0 { ",\n  {\"tensor\": " } else { "\n  {\"tensor\": " });
            esc(&mut out, &v.tensor);
            out.push_str(", \"kind\": ");
            esc(&mut out, v.kind);
            let _ = write!(out, ", \"index\": {}, \"epoch\": {}}}", v.index, v.epoch);
        }
        out.push_str("],\n\"param_norms\": ");
        json_map(
            &mut out,
            params.ids().map(|id| (params.name(id), params.get(id).frobenius_sq().sqrt())),
        );
        out.push_str(",\n\"recent\": {");
        let recent: [(&str, &[f64]); 5] = [
            ("re_loss", &history.re_loss),
            ("ce_loss", &history.ce_loss),
            ("kl_pq", &history.kl_pq),
            ("grad_norm", &history.grad_norm),
            ("update_ratio", &history.update_ratio),
        ];
        for (i, (name, values)) in recent.into_iter().enumerate() {
            out.push_str(if i > 0 { ", " } else { "" });
            esc(&mut out, name);
            out.push_str(": [");
            for (j, v) in values[values.len().saturating_sub(8)..].iter().enumerate() {
                out.push_str(if j > 0 { ", " } else { "" });
                num(&mut out, *v);
            }
            out.push(']');
        }
        out.push_str("}}\n");

        let ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let seq = DUMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let file = format!("dump-{ms}-{seq}.json");
        for dir in [std::path::PathBuf::from(&self.health.dump_dir), std::env::temp_dir()] {
            let path = dir.join(&file);
            if std::fs::create_dir_all(&dir).is_ok() && std::fs::write(&path, &out).is_ok() {
                return Some(path.to_string_lossy().into_owned());
            }
        }
        None
    }
}

/// Writes `{"name": value, …}`.
fn json_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, f64)>) {
    out.push('{');
    for (i, (name, v)) in entries.enumerate() {
        out.push_str(if i > 0 { ", " } else { "" });
        obs::json::escape_into(out, name);
        out.push_str(": ");
        obs::json::number_into(out, v);
    }
    out.push('}');
}

/// Monotone counter making dump filenames unique within a process even
/// when two aborts land in the same millisecond.
static DUMP_COUNTER: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConvergenceStatus;
    use obs::health::Verdict;

    /// Four rows, two clusters, fixed soft assignments (labels 0, 1, 1, 0).
    fn toy_q() -> Matrix {
        Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.1, 0.9], &[0.7, 0.3]])
    }

    fn toy_trainer(epochs: usize, policy: Policy, dump_dir: &str) -> (Trainer, Params) {
        let mut params = Params::new();
        let centers = params.register_named("centers", Matrix::full(2, 2, 5.0));
        let trainer = Trainer {
            method: "toy",
            k: 2,
            epochs,
            lr: 0.1,
            health: HealthConfig {
                policy: Some(policy),
                dump_dir: dump_dir.to_string(),
                run_seed: Some(7),
                nan_epoch: None,
            },
            centers: Some(centers),
            config: vec![("k", 2.0), ("epochs", epochs as f64)],
        };
        (trainer, params)
    }

    /// `‖centers‖²`, multiplied by NaN from epoch `nan_at` on.
    fn toy_run(trainer: &Trainer, params: &mut Params, nan_at: Option<usize>) -> Trained<f64> {
        let centers = trainer.centers.expect("toy has centers");
        trainer.run(params, |t, bound, epoch| {
            let scale = if Some(epoch) == nan_at { f64::NAN } else { 1.0 };
            let loss = t.scale(t.sum(t.square(bound.var(centers))), scale);
            let value = t.value(loss)[(0, 0)];
            Objective {
                loss,
                re_loss: value,
                ce_loss: None,
                kl_pq: 0.1,
                assign: toy_q(),
                keep: value,
            }
        })
    }

    fn field(line: &str, key: &str) -> obs::json::Json {
        obs::json::parse(line).expect("valid JSON").get(key).cloned().expect("field present")
    }

    #[test]
    fn healthy_run_records_history_events_and_a_verdict() {
        let (trainer, mut params) = toy_trainer(12, Policy::Strict, "unused");
        let (out, lines) =
            obs::test_support::with_memory_sink(|| toy_run(&trainer, &mut params, None));
        assert_eq!(out.health.verdict, Verdict::Healthy);
        assert_eq!(out.history.re_loss.len(), 12);
        assert_eq!(out.history.grad_norm.len(), 12);
        assert!(out.history.ce_loss.is_empty(), "no ce_loss without a KL(p‖m) term");
        // Adam descends ‖centers‖².
        assert!(out.keep.expect("completed") < out.history.re_loss[0]);
        assert_eq!(out.assign, toy_q());
        // Constant labels: settled after the first full-churn epoch.
        assert_eq!(out.convergence.status, ConvergenceStatus::Converged);
        assert_eq!(out.convergence.epoch, Some(1));
        // The loop measures centroid drift of the centers it was given.
        assert!(out.history.centroid_drift[1] > 0.0);

        let named = |name: &str| -> Vec<&String> {
            lines.iter().filter(|l| l.contains(&format!("\"event\":\"{name}\""))).collect()
        };
        assert_eq!(named("train.epoch").len(), 12);
        assert_eq!(named("nn.grad_norm").len(), 12);
        assert_eq!(named("train.convergence").len(), 1);
        let diags = named("train.diag");
        assert_eq!(diags.len(), 12);
        assert_eq!(field(diags[3], "method").as_str(), Some("toy"));
        assert_eq!(field(diags[3], "epoch").as_f64(), Some(3.0));
        assert_eq!(field(diags[3], "delta_label_frac").as_f64(), Some(0.0));
        assert_eq!(field(diags[3], "min_share").as_f64(), Some(0.5));
        assert_eq!(field(diags[3], "max_share").as_f64(), Some(0.5));
        // Every event of the fit shares one fit id.
        let fit = field(diags[0], "fit");
        for line in named("train.epoch").into_iter().chain(diags).chain(named("train.convergence")) {
            assert_eq!(field(line, "fit"), fit);
        }
    }

    #[test]
    fn strict_nan_aborts_before_the_step_and_writes_a_dump() {
        let dir = std::env::temp_dir().join(format!("tabledc-train-abort-{}", std::process::id()));
        let (trainer, mut params) = toy_trainer(8, Policy::Strict, &dir.to_string_lossy());
        let nan_at = 3;
        let (out, lines) =
            obs::test_support::with_memory_sink(|| toy_run(&trainer, &mut params, Some(nan_at)));

        assert_eq!(out.health.verdict, Verdict::Aborted);
        assert_eq!(out.history.re_loss.len(), nan_at);
        assert_eq!(out.history.grad_norm.len(), nan_at);
        // The poisoned epoch took no step: the centers stay finite.
        assert!(params.get(trainer.centers.unwrap()).all_finite());
        assert!(out.keep.expect("epochs before the abort completed").is_finite());

        let dump = out.health.dump_path.clone().expect("dump written on strict abort");
        let text = std::fs::read_to_string(&dump).expect("dump readable");
        let v = obs::json::parse(&text).expect("dump is valid JSON");
        assert_eq!(v.get("tensor").unwrap().as_str(), Some("re_loss"));
        assert_eq!(v.get("epoch").unwrap().as_f64(), Some(nan_at as f64));
        assert_eq!(v.get("policy").unwrap().as_str(), Some("strict"));
        assert_eq!(v.get("seed").unwrap().as_f64(), Some(7.0));
        for key in ["config", "violations", "param_norms", "recent"] {
            assert!(v.get(key).is_some(), "dump misses {key}");
        }
        assert!(v.get("param_norms").unwrap().get("centers").is_some());
        std::fs::remove_file(&dump).ok();

        // The aborting epoch emits neither train.epoch nor train.diag, and
        // health.abort precedes health.dump.
        let count = |name: &str| lines.iter().filter(|l| l.contains(name)).count();
        assert_eq!(count("\"train.epoch\""), nan_at);
        assert_eq!(count("\"train.diag\""), nan_at);
        let abort = lines.iter().position(|l| l.contains("\"health.abort\""));
        let dump = lines.iter().position(|l| l.contains("\"health.dump\""));
        assert!(abort.is_some() && abort < dump, "health.abort must precede health.dump");
    }

    #[test]
    fn strict_nan_in_the_first_epoch_assigns_zeros() {
        let dir = std::env::temp_dir().join(format!("tabledc-train-first-{}", std::process::id()));
        let (trainer, mut params) = toy_trainer(4, Policy::Strict, &dir.to_string_lossy());
        let out = toy_run(&trainer, &mut params, Some(0));
        assert_eq!(out.health.verdict, Verdict::Aborted);
        assert!(out.history.re_loss.is_empty());
        assert!(out.keep.is_none());
        assert_eq!(out.assign, Matrix::zeros(4, 2));
        std::fs::remove_file(out.health.dump_path.expect("dump written")).ok();
    }

    #[test]
    fn warn_policy_records_the_nan_and_completes_every_epoch() {
        let (trainer, mut params) = toy_trainer(8, Policy::Warn, "unused");
        let out = toy_run(&trainer, &mut params, Some(3));
        assert_eq!(out.health.verdict, Verdict::Warned);
        assert!(out.health.total_violations >= 1);
        assert_eq!(out.health.violations[0].tensor, "re_loss");
        assert_eq!(out.health.violations[0].epoch, 3);
        assert!(out.health.dump_path.is_none(), "warn policy never dumps");
        assert_eq!(out.history.re_loss.len(), 8);
    }

    #[test]
    fn zero_epochs_assign_from_one_forward_pass_without_a_step() {
        let (trainer, mut params) = toy_trainer(0, Policy::Strict, "unused");
        let before = params.get(trainer.centers.unwrap()).clone();
        let out = toy_run(&trainer, &mut params, None);
        assert_eq!(out.assign, toy_q());
        assert_eq!(out.keep, Some(100.0));
        assert!(out.history.re_loss.is_empty());
        assert_eq!(params.get(trainer.centers.unwrap()), &before);
        assert_eq!(out.convergence.status, ConvergenceStatus::Unknown);
    }
}
