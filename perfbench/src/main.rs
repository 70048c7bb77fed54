//! Benchmark of qtnsim: one workload per run, end-to-end metrics untraced,
//! per-layer metrics traced. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--rev <git rev>]
//! ```
//!
//! `--out-dir` (default `perfbench-out`) receives the run's temporary
//! result logs, its trace and the exact counters later runs of the same
//! binary are checked against.
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod common;
mod layers;
mod plan;
mod sample;
mod serve;
mod stats;
mod sweep;
mod trace;

use common::{Report, RunConfig};
use qtnsim_core::json::JsonObject;
use std::path::PathBuf;

/// A workload: measures one run and reports what it measured and checked.
type Workload = fn(&RunConfig) -> Report;

/// Workloads this binary runs.
const WORKLOADS: [(&str, Workload); 4] = [
    ("rqc12-sweep", sweep::run),
    ("rqc20-sample", sample::run),
    ("serve-open", serve::run),
    ("sycamore-plan", plan::run),
];

/// End-to-end metrics: reported by every workload of an untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("amps_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("plan_sliced_flops", "flop"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: reported by every workload of a traced run, 0 where
/// the workload bypasses the layer.
const PER_LAYER: [(&str, &str); 54] = [
    ("call.p90_ms", "ms"),
    ("call.tail_ms", "ms"),
    ("circuit.to_network_ms", "ms"),
    ("circuit.fingerprint_us", "us"),
    ("tensornet.simplify_ms", "ms"),
    ("tensornet.path_search_ms", "ms"),
    ("tensornet.refine_path_ms", "ms"),
    ("tensornet.defer_joins_ms", "ms"),
    ("tensornet.classify_ms", "ms"),
    ("tensornet.memory_plan_ms", "ms"),
    ("tensornet.log2_cost", "log2flop"),
    ("slicing.finder_ms", "ms"),
    ("slicing.anneal_ms", "ms"),
    ("slicing.sliced_edges", "count"),
    ("slicing.overhead", "ratio"),
    ("engine.compile_miss_ms", "ms"),
    ("engine.compile_hit_us", "us"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("engine.rebind_us", "us"),
    ("engine.branch_survived_ratio", "ratio"),
    ("executor.execute_ms", "ms"),
    ("executor.flops_per_amp", "flop"),
    ("executor.gflops", "GF/s"),
    ("executor.subtasks", "count"),
    ("executor.mixed_dedup_ratio", "ratio"),
    ("executor.pure_reuse_ratio", "ratio"),
    ("executor.buffers_allocated", "count"),
    ("executor.peak_bytes", "B"),
    ("executor.gemm_blocked_share", "ratio"),
    ("executor.overhead_share", "ratio"),
    ("tensor.contract_ms", "ms"),
    ("tensor.gemm_ms", "ms"),
    ("tensor.permute_fill_share", "ratio"),
    ("tensor.flops", "flop"),
    ("tensor.bytes_moved", "B"),
    ("tensor.ops_per_byte", "flop/B"),
    ("tensor.gemm_gflops", "GF/s"),
    ("sampling.sample_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.queue_ms", "ms"),
    ("serve.batch_occupancy", "amps"),
    ("serve.solo_flush_share", "ratio"),
    ("serve.deadline_flush_share", "ratio"),
    ("serve.size_flush_share", "ratio"),
    ("serve.server_execute_share", "ratio"),
    ("serve.requests_shed", "count"),
    ("serve.requests_failed", "count"),
    ("serve.panics_caught", "count"),
    ("serve.generator_late_ms", "ms"),
    ("serve.light_p50_ms", "ms"),
    ("serve.light_p99_ms", "ms"),
    ("serve.capacity_rps", "1/s"),
    ("trace.overhead_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut out_dir, mut rev) = (None, "unknown".to_string());
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--rev" => rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
        rev,
    })
}

/// Run metadata recorded with every result.
fn meta(args: &Args) -> String {
    let mut o = JsonObject::new();
    o.field_str("workload", &args.workload)
        .field_u64("seed", args.seed)
        .field_f64("seconds", args.seconds)
        .field_bool("traced", args.trace)
        .field_usize("nproc", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0))
        .field_usize("workers", common::WORKERS)
        .field_str("simd_level", qtn_tensor::simd_level().as_str())
        .field_str("QTNSIM_FORCE_SCALAR", &std::env::var("QTNSIM_FORCE_SCALAR").unwrap_or_default())
        .field_str("git_rev", &args.rev);
    o.finish()
}

/// Compare the run's exact counters with those an earlier run of the same
/// binary at the same workload and seed stored in `dir`; store them when
/// this is the first such run.
fn guard_counts(dir: &std::path::Path, args: &Args, report: &mut Report) {
    let mut text = String::new();
    for (name, value) in &report.counts {
        text.push_str(&format!("{name} {value}\n"));
    }
    let path = dir.join(format!("counts-{}-seed{}.txt", args.workload, args.seed));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != text => {
            report.violations.push(format!(
                "exact counters differ from an earlier run at this seed ({})",
                path.display()
            ));
        }
        Ok(_) => {}
        Err(_) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("perfbench: cannot store counters in {}: {e}", path.display());
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if std::env::var_os("QTNSIM_FAULTS").is_some() {
        eprintln!("perfbench: QTNSIM_FAULTS is set; injected faults would read as regressions");
        std::process::exit(2);
    }
    let Some(&(_, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    println!("meta {}", meta(&args));

    let out_dir = args.out_dir.clone().unwrap_or_else(|| PathBuf::from("perfbench-out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let cfg = RunConfig { seed: args.seed, seconds: args.seconds, trace: args.trace, out_dir };
    let mut report = run(&cfg);

    guard_counts(&cfg.out_dir, &args, &mut report);
    if let Some(tracer) = &report.tracer {
        let path = cfg.out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    for line in &report.notes {
        println!("note {line}");
    }
    for (name, value) in &report.counts {
        println!("count {name} = {value}");
    }
    for v in &report.violations {
        println!("violation {v}");
    }
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = JsonObject::new();
    let mut missing = Vec::new();
    for &(name, unit) in catalogue {
        let value = match report.metrics.iter().find(|(n, _, _)| n == name) {
            Some(&(_, v, u)) => {
                assert_eq!(u, unit, "unit of {name}");
                v
            }
            // A layer this workload bypasses reads 0; an end-to-end metric
            // must always be measured.
            None if args.trace => 0.0,
            None if report.not_applicable.contains(&name) => f64::NAN,
            None => {
                missing.push(name);
                f64::NAN
            }
        };
        println!("metric {name} = {value} {unit}");
        let mut m = JsonObject::new();
        m.field_f64("value", value).field_str("unit", unit);
        metrics.field_raw(name, &m.finish());
    }
    if !missing.is_empty() {
        eprintln!("perfbench: {} did not measure {missing:?}", args.workload);
        std::process::exit(1);
    }
    let mut result = JsonObject::new();
    result
        .field_bool("correct", report.violations.is_empty())
        .field_u64("attempted", report.attempted)
        .field_u64("failed", report.failed)
        .field_raw("metrics", &metrics.finish());
    println!("{}", result.finish());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every string value of `key` in `json`, in order.
    fn values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let pattern = format!("\"{key}\": \"");
        json.match_indices(&pattern)
            .map(|(at, _)| {
                let rest = &json[at + pattern.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        let names = values(json, "name");
        let units = values(json, "unit");
        let metrics: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        let workloads = &names[..names.len() - metrics.len()];
        assert!(workloads.len() >= 2);
        for w in workloads {
            assert!(WORKLOADS.iter().any(|(name, _)| name == w), "unknown workload {w}");
        }
        let listed: Vec<(&str, &str)> =
            names[workloads.len()..].iter().copied().zip(units.iter().copied()).collect();
        assert_eq!(listed, metrics);
    }
}
