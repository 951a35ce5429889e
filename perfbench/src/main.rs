//! The repository's benchmark: three TableDC / baseline workloads, each a
//! closed loop of fits and predict calls, reporting end-to-end metrics
//! (untraced) or per-layer metrics (traced). See README.md.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench spread <result-file>...
//! ```

mod probes;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use workloads::{Metric, Workload};

/// End-to-end metrics as printed with `--trace 0`, in order.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "fit_s",
    "fit_cpu_s",
    "predict_rows_per_s",
    "ari",
    "acc",
    "peak_rss_mb",
    "success_rate",
];

/// Per-layer metrics as printed with `--trace 1`, in order.
pub const PER_LAYER: [&str; 28] = [
    "datagen.generate_ms",
    "nn.pretrain_s",
    "clustering.init_s",
    "tabledc.train_s",
    "tabledc.epoch_ms.p50",
    "tabledc.epoch_ms.tail",
    "tabledc.epochs_after_convergence",
    "fit.unattributed_s",
    "fit.traced_s",
    "runtime.tasks",
    "runtime.busy_share",
    "tensor.matmul.enc0_fwd.gflops",
    "tensor.matmul.enc0_wgrad.gflops",
    "tensor.matmul.minibatch.gflops",
    "runtime.pool_speedup.enc0_fwd",
    "runtime.pool_speedup.minibatch",
    "tensor.cdist.head_ms",
    "tensor.softmax.head_ms",
    "tabledc.target_distribution_ms",
    "tabledc.diagnostics_ms",
    "tabledc.predict_call_ms",
    "autograd.forward_ms",
    "autograd.backward_ms",
    "nn.adam_step_us",
    "graph.adjacency_ms",
    "graph.gcn_forward_ms",
    "baselines.sdcn.fit_s",
    "baselines.dfcn.fit_s",
];

/// Threads the global pool is pinned to, at most the machine's.
const THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (workloads::DEFAULT_SEED, 30.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Pins the environment the program reads once, so no result comes from an
/// inherited setting, and prints it.
fn pin_environment(args: &Args) {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(available);
    std::env::set_var(runtime::THREADS_ENV, threads.to_string());
    std::env::set_var("TABLEDC_HEALTH", "strict");
    for inherited in ["TABLEDC_TRACE", "TABLEDC_PROFILE", "TABLEDC_FOLDED"] {
        std::env::remove_var(inherited);
    }
    // The revision of this checkout only: git may not search above it for
    // an enclosing repository.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_owned()))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let git = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    println!(
        "env: workload={} seed={} seconds={} trace={} {}={} available_parallelism={} rustc=\"{}\" git={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        runtime::THREADS_ENV,
        threads,
        available,
        command_line("rustc", &["-V"]),
        git
    );
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// `spread`: median, quartiles and spread of each metric over saved runs
/// (each file's last line is a result object).
fn spread(files: &[String]) -> Result<(), String> {
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let last = text
            .lines()
            .last()
            .ok_or_else(|| format!("{file}: empty"))?;
        let json = obs::json::parse(last).map_err(|e| format!("{file}: {e}"))?;
        let Some(obs::json::Json::Obj(metrics)) = json.get("metrics") else {
            return Err(format!("{file}: no metrics object"));
        };
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{file}: {name} has no value"))?;
            match values.iter_mut().find(|(n, _)| n == name) {
                Some((_, vs)) => vs.push(v),
                None => values.push((name.clone(), vec![v])),
            }
        }
    }
    println!(
        "{:<36} {:>4} {:>14} {:>14} {:>14} {:>8}",
        "metric", "n", "median", "q1", "q3", "spread"
    );
    for (name, vs) in &values {
        if vs.len() < 2 {
            continue;
        }
        let (q1, q3) = stats::quartiles(vs);
        let m = stats::median(vs);
        println!(
            "{name:<36} {:>4} {m:>14.6} {q1:>14.6} {q3:>14.6} {:>8.4}",
            vs.len(),
            stats::spread(vs)
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spread") {
        return match spread(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench spread: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|"));
            return ExitCode::from(2);
        }
    };
    pin_environment(&args);
    let outcome = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    let complete = names == expected
        && names.iter().all(|n| stats::valid_name(n))
        && outcome
            .metrics
            .iter()
            .all(|m| m.1.is_finite() && stats::valid_unit(m.2));
    if !complete {
        eprintln!("perfbench: metric set incomplete or non-finite: {names:?}");
    }
    let metrics: Vec<Metric> = outcome
        .metrics
        .into_iter()
        .filter(|m| m.1.is_finite())
        .collect();
    let correct = complete && outcome.failed == 0;
    println!(
        "{}",
        result_json(correct, outcome.attempted, outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> obs::json::Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        obs::json::parse(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"),
        )
        .expect("BENCHMARK.json parses")
    }

    fn names(json: &obs::json::Json, key: &str) -> Vec<String> {
        match json.get(key) {
            Some(obs::json::Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect(),
            _ => panic!("{key} is not an array"),
        }
    }

    #[test]
    fn benchmark_json_names_match_the_printed_metrics() {
        let json = benchmark_json();
        assert_eq!(names(&json, "end_to_end"), END_TO_END);
        assert_eq!(names(&json, "per_layer"), PER_LAYER);
        assert_eq!(names(&json, "workloads"), Workload::ALL.map(Workload::name));
    }

    #[test]
    fn benchmark_json_follows_the_grammar() {
        let json = benchmark_json();
        for key in ["end_to_end", "per_layer"] {
            let Some(obs::json::Json::Arr(items)) = json.get(key) else {
                panic!("{key}")
            };
            for m in items {
                let name = m.get("name").and_then(|n| n.as_str()).expect("name");
                assert!(stats::valid_name(name), "{name}");
                assert!(
                    stats::valid_unit(m.get("unit").and_then(|u| u.as_str()).expect("unit")),
                    "{name}"
                );
                if let Some(bound) = m.get("bound") {
                    let b = bound.as_f64().expect("numeric bound");
                    assert!((0.0..=0.25).contains(&b), "{name}: bound {b}");
                }
            }
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload web_baselines --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Web, 7, 12.0, true)
        );
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload tus_tabledc --trace 2")).is_err());
        assert!(parse_args(&argv("--workload tus_tabledc --seconds")).is_err());
    }

    #[test]
    fn result_line_has_the_required_keys() {
        let line = result_json(true, 3, 0, &[("fit_s", 1.25, "s"), ("ari", 0.5, "ratio")]);
        let json = obs::json::parse(&line).expect("valid JSON");
        assert_eq!(json.get("attempted").and_then(|v| v.as_f64()), Some(3.0));
        let fit = json
            .get("metrics")
            .and_then(|m| m.get("fit_s"))
            .expect("fit_s");
        assert_eq!(fit.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(fit.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
