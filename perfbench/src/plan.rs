//! `sycamore-plan`: planning-only, on the 53-qubit Sycamore RQC (m = 20)
//! at `target_rank` 30.
//!
//! One caller in a closed loop compiles the circuit on a fresh engine for
//! each planner seed of a set of [`SEEDS`] derived from the workload seed,
//! cycling through the set, so every compile is a plan-cache miss. Each
//! plan is checked to keep every sliced stem tensor within the target
//! rank. The path refiner, lifetime slice finder and SA refiner decide
//! this workload; nothing is executed.

use crate::common::{self, Report, RunConfig};
use crate::layers;
use crate::stats;
use crate::trace::Tracer;
use qtn_circuit::{sycamore_rqc, OutputSpec};
use qtnsim_core::{Engine, PlannerConfig};
use std::time::{Duration, Instant};

const CYCLES: usize = 20;
const TARGET_RANK: usize = 30;
/// Planner seeds per workload seed.
const SEEDS: u64 = 12;
const SETUPS: usize = 3;

fn planner(seed: u64) -> PlannerConfig {
    PlannerConfig { target_rank: TARGET_RANK, seed, ..Default::default() }
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report { not_applicable: vec!["amps_per_s"], ..Report::default() };
    let mut tracer = Tracer::new(cfg.trace);
    let circuit = sycamore_rqc(CYCLES, 2023);
    let spec = OutputSpec::Amplitude(vec![0; circuit.num_qubits()]);
    let seeds: Vec<u64> =
        (0..SEEDS).map(|i| cfg.seed.wrapping_mul(SEEDS).wrapping_add(i)).collect();
    let compile = |seed: u64| {
        let engine = Engine::with_configs(planner(seed), common::executor(common::WORKERS));
        engine.compile(&circuit, &spec)
    };

    let mut setup_s = Vec::new();
    for s in 0..SETUPS as u64 {
        let t = Instant::now();
        let out = tracer.time(s, "engine.compile", None, || compile(seeds[0]));
        setup_s.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        if let Err(e) = out {
            report.violation(format!("compile failed: {e}"));
        }
    }

    let mut latencies = Vec::new();
    let mut plans = vec![None; seeds.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut k = 0;
    while Instant::now() < deadline || k < seeds.len() {
        let seed = seeds[k % seeds.len()];
        let t = Instant::now();
        let out = compile(seed);
        latencies.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        match out {
            Ok(c) => {
                let plan = c.plan();
                if plan.sliced_max_rank() > TARGET_RANK {
                    report.violation(format!(
                        "planner seed {seed}: sliced_max_rank {} > target_rank {TARGET_RANK}",
                        plan.sliced_max_rank()
                    ));
                }
                if plans[k % seeds.len()].is_none() {
                    plans[k % seeds.len()] = Some(std::sync::Arc::new(plan.clone()));
                }
            }
            Err(e) => report.violation(format!("planner seed {seed}: compile failed: {e}")),
        }
        k += 1;
    }
    let peak_rss = common::peak_rss_mb();
    let plans: Vec<_> = plans.into_iter().flatten().collect();
    let sliced: Vec<f64> = plans.iter().map(|p| common::plan_sliced_flops(p)).collect();
    for (seed, p) in seeds.iter().zip(&plans) {
        report.count(
            &format!("plan.seed{seed}.sliced_flops"),
            format!("{:?}", common::plan_sliced_flops(p)),
        );
        report.count(&format!("plan.seed{seed}.sliced_max_rank"), p.sliced_max_rank());
    }

    if !cfg.trace {
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.latency(&latencies);
        report.metric("plan_sliced_flops", stats::median(&sliced), "flop");
        report.metric("peak_rss_mb", peak_rss, "MB");
        return report;
    }

    report.metric("engine.compile_miss_ms", tracer.median_ms("engine.compile"), "ms");
    for (id, (seed, plan)) in seeds.iter().zip(&plans).enumerate() {
        layers::plan_replica(
            &mut tracer,
            id as u64,
            &circuit,
            &spec,
            &planner(*seed),
            plan,
            &mut report,
        );
    }
    let plans: Vec<&qtnsim_core::SimulationPlan> = plans.iter().map(|p| p.as_ref()).collect();
    layers::report_planner(&tracer, &plans, &mut report);
    report.notes.extend(tracer.summary());
    report.tracer = Some(tracer);
    report
}
