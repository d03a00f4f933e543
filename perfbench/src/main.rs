//! The repository benchmark: three workloads, end to end and layer by layer.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_int8 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the same workload with spans around every call into a layer and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! correctness check makes the run exit with code 1. See README.md.

mod attack;
mod counting;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics (reported by every workload with tracing off):
/// name, unit.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MiB"), ("rate_per_s", "1/s"), ("lat_p50_ms", "ms")];

/// The attack keys of the `mnist_suite`, in suite order.
pub const ATTACKS: [&str; 8] = ["fgsm", "pgd", "jsma", "cw", "df", "lsa", "ba", "hsj"];

/// Per-layer metrics (reported by every workload with tracing on; a layer
/// the workload does not load reports 0): name, unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("net.ping_rtt_us.p50", "us"),
        ("net.codec_us.p50", "us"),
        ("net.error_replies", "count"),
        ("net.rate_limited", "count"),
        ("gen.lag_ms.p99.light", "ms"),
        ("gen.lag_ms.p99.heavy", "ms"),
        ("gen.lag_ms.p99.ladder", "ms"),
        ("gen.lag_ms.p99.overload", "ms"),
        ("serve.lat_p99_ms.light", "ms"),
        ("serve.lat_p50_ms.heavy", "ms"),
        ("serve.lat_p99_ms.heavy", "ms"),
        ("serve.max_rate_rps", "1/s"),
        ("serve.wait_us.p50.light", "us"),
        ("serve.wait_us.p99.heavy", "us"),
        ("serve.mean_batch.light", "count"),
        ("serve.mean_batch.heavy", "count"),
        ("serve.flush_deadline_us", "us"),
        ("serve.shed_ratio.overload", "ratio"),
        ("serve.ewma_service_us.overload", "us"),
        ("serve.degraded_total", "count"),
        ("serve.unattributed_us.light", "us"),
        ("engine.predict_us.int8.b1", "us"),
        ("engine.predict_us.int8.b8", "us"),
        ("engine.workspace_allocs", "count"),
        ("engine.items_per_s.heap", "1/s"),
        ("engine.items_per_s.axfpm", "1/s"),
        ("engine.macs_per_item", "MAC"),
        ("engine.pct_of_gemm.heap", "%"),
        ("engine.compile_s.int8", "s"),
        ("snapshot.save_s", "s"),
        ("snapshot.load_s", "s"),
        ("nn.train_s", "s"),
        ("nn.grad_calls", "count"),
        ("nn.grad_ms.p50", "ms"),
        ("arith.gemm_macs_per_s.heap", "MAC/s"),
        ("arith.gemm_macs_per_s.axfpm", "MAC/s"),
        ("arith.fused_macs_per_s.heap", "MAC/s"),
        ("attacks.source_success_ratio", "ratio"),
        ("attacks.transfer_ratio.heap", "ratio"),
        ("attacks.transfer_ratio.axfpm", "ratio"),
        ("attacks.whitebox_success_ratio", "ratio"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for a in ATTACKS {
        out.push((format!("attacks.craft_ms.{a}"), "ms"));
        out.push((format!("attacks.self_ms.{a}"), "ms"));
        out.push((format!("attacks.queries.{a}"), "count"));
    }
    for &(n, u) in END_TO_END {
        out.push((format!("traced.{n}"), u));
    }
    out
}

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where the run writes its snapshot files and span dump (inside the
    /// checkout; removed or overwritten on every run).
    pub scratch: PathBuf,
}

/// Everything a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    e2e: BTreeMap<String, f64>,
    layer: BTreeMap<String, f64>,
    /// Failed correctness checks.
    failures: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_string(), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, what: &str, ok: bool) {
        println!("check {}: {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            self.failures.push(what.to_string());
        }
    }
}

const USAGE: &str = "usage: perfbench --workload serve_int8|transfer_heap|whitebox_axfpm \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => trace = Some(number(&value)? != 0),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let scratch = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
        .join("perfbench-scratch");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    Ok(Opts {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?.max(1),
        trace: trace.unwrap_or(false),
        scratch,
    })
}

/// Format one metrics map entry; `{}` on f64 prints every digit needed to
/// round-trip the measured value.
fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if opts.trace {
        trace::enable();
    }
    println!(
        "perfbench {} seed {} seconds {} trace {} | nproc {} | {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model(),
    );

    let mut out = Outcome::default();
    let started = std::time::Instant::now();
    let result = match opts.workload.as_str() {
        "serve_int8" => serve::run(&opts, &mut out),
        "transfer_heap" => attack::run_transfer(&opts, &mut out),
        "whitebox_axfpm" => attack::run_whitebox(&opts, &mut out),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", opts.workload);
        std::process::exit(1);
    }
    out.e2e("peak_rss_mb", stats::peak_rss_mib());
    eprintln!("perfbench: {} took {:.1} s", opts.workload, started.elapsed().as_secs_f64());

    let (listed, values) = if opts.trace {
        let spans = trace::snapshot();
        let dump = opts.scratch.join(format!("trace-{}.jsonl", opts.workload));
        if let Err(e) = trace::write_jsonl(&dump, &spans) {
            eprintln!("perfbench: cannot write spans to {}: {e}", dump.display());
            std::process::exit(1);
        }
        println!("{} spans written to {}", spans.len(), dump.display());
        for (name, value) in &out.e2e {
            out.layer.insert(format!("traced.{name}"), *value);
        }
        (per_layer(), &out.layer)
    } else {
        (END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect(), &out.e2e)
    };
    // A human-readable line per metric, then the one result line.
    let mut metrics = Vec::with_capacity(listed.len());
    for (name, unit) in &listed {
        if !stats::valid_metric_name(name) || !stats::valid_unit(unit) {
            eprintln!("perfbench: invalid metric name or unit: {name} [{unit}]");
            std::process::exit(1);
        }
        let value = values.get(name).copied().unwrap_or(0.0);
        println!("metric {name:<34} {value} {unit}");
        metrics.push(json_metric(name, value, unit));
    }
    let correct = out.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        eprintln!("perfbench: failed checks: {}", out.failures.join("; "));
        std::process::exit(1);
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown CPU".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|&(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for &(_, u) in END_TO_END {
            assert!(stats::valid_unit(u), "{u}");
        }
        for (_, u) in per_layer() {
            assert!(stats::valid_unit(u), "{u}");
        }
        for n in &names {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names must be unique");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = |n: &str| json.contains(&format!("\"name\": \"{n}\""));
        for &(n, _) in END_TO_END {
            assert!(declared(n), "{n} missing from BENCHMARK.json");
        }
        for (n, _) in per_layer() {
            assert!(declared(&n), "{n} missing from BENCHMARK.json");
        }
    }
}
