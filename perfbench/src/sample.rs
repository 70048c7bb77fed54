//! `rqc20-sample`: correlated sampling on the 20-qubit RQC.
//!
//! One caller in a closed loop. Each call fixes the 14 closed qubits to
//! seeded-random bits, computes the 64 amplitudes of the 6 open qubits in
//! one batched execution and draws correlated samples from them — the
//! composition `CompiledCircuit::sample` performs, called as its two
//! public halves so the amplitudes can be checked. The call is
//! compute-bound: GEMM kernels and the slicing overhead decide its time.

use crate::common::{self, plan_counts, ExecTotals, Report, Rng, RunConfig, AMPLITUDE_TOLERANCE};
use crate::layers;
use crate::stats;
use crate::trace::Tracer;
use qtn_circuit::{Circuit, OutputSpec, RqcConfig};
use qtn_statevector::StateVector;
use qtn_tensor::Complex64;
use qtnsim_core::{sample_bitstrings, CompiledCircuit, Engine, ExecutionStats, PlannerConfig};
use std::time::{Duration, Instant};

/// The open (sampled) qubits.
const OPEN: [usize; 6] = [0, 1, 2, 3, 4, 5];
/// Samples drawn per call.
const SAMPLES: usize = 256;
const SETUPS: usize = 3;
/// Repetitions of each per-layer timing in a traced run (one replay or
/// execution takes about a second).
const TIMING_REPS: usize = 3;

fn circuit() -> Circuit {
    RqcConfig::small(4, 5, 12, 5).build()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 12, ..Default::default() }
}

fn spec(n: usize) -> OutputSpec {
    OutputSpec::Open { fixed: vec![0; n], open: OPEN.to_vec() }
}

struct Call {
    fixed: Vec<u8>,
    sample_seed: u64,
}

fn next_call(rng: &mut Rng, n: usize) -> Call {
    let mut fixed = rng.bits(n);
    for q in OPEN {
        fixed[q] = 0;
    }
    Call { fixed, sample_seed: rng.next_u64() }
}

/// What one call returned: the 64 amplitudes and the samples, each as an
/// index over the open qubits (ascending qubit order, first qubit most
/// significant), or [`INVALID`] for a sample that is not a 0/1 string over
/// the open qubits. Kept this compact so that the results held for the
/// check add little to the peak resident memory.
struct Outcome {
    amps: Vec<Complex64>,
    samples: Vec<u8>,
}

const INVALID: u8 = u8::MAX;

fn open_bits(index: usize) -> Vec<u8> {
    (0..OPEN.len()).map(|i| ((index >> (OPEN.len() - 1 - i)) & 1) as u8).collect()
}

fn open_index(sample: &[u8]) -> u8 {
    if sample.len() != OPEN.len() || sample.iter().any(|&b| b > 1) {
        return INVALID;
    }
    sample.iter().fold(0, |acc, &b| acc << 1 | b)
}

fn run_call(
    tracer: &mut Tracer,
    id: u64,
    compiled: &CompiledCircuit,
    call: &Call,
) -> Result<(Outcome, ExecutionStats), qtnsim_core::Error> {
    let span = tracer.begin(id, "call", None);
    let root = Some(span);
    let out = tracer
        .time(id, "executor.execute_batch", root, || compiled.execute_batch(&call.fixed))
        .and_then(|(batch, report)| {
            let samples = tracer.time(id, "sampling.sample_bitstrings", root, || {
                sample_bitstrings(&batch, SAMPLES, call.sample_seed)
            })?;
            let amps = (0..1usize << OPEN.len()).map(|i| batch.get(&open_bits(i))).collect();
            let samples = samples.iter().map(|s| open_index(s)).collect();
            Ok((Outcome { amps, samples }, report.stats))
        });
    tracer.end(span);
    out
}

/// Compare every call's amplitudes with the state vector, and check that
/// every sample is a 0/1 string over the open qubits whose completion with
/// the call's fixed bits has non-zero probability.
fn check(base: &Circuit, calls: &[Call], results: &[Option<Outcome>], report: &mut Report) {
    let sv = StateVector::simulate(base);
    for (call, result) in calls.iter().zip(results) {
        let Some(out) = result else { continue };
        let full = |open: &[u8]| {
            let mut bits = call.fixed.clone();
            for (i, &q) in OPEN.iter().enumerate() {
                bits[q] = open[i];
            }
            bits
        };
        for (i, amp) in out.amps.iter().enumerate() {
            let err = (*amp - sv.amplitude(&full(&open_bits(i)))).abs();
            if err.is_nan() || err > AMPLITUDE_TOLERANCE {
                report.violation(format!("amplitude {:?} off by {err:e}", full(&open_bits(i))));
            }
        }
        for &s in &out.samples {
            if s == INVALID || sv.amplitude(&full(&open_bits(s as usize))).norm_sqr() == 0.0 {
                report.violation(format!("sample {s} does not extend fixed bits {:?}", call.fixed));
            }
        }
        if out.samples.len() != SAMPLES {
            report.violation(format!("{} samples instead of {SAMPLES}", out.samples.len()));
        }
    }
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(cfg.trace);
    let mut off = Tracer::new(false);
    let base = circuit();
    let n = base.num_qubits();
    let mut rng = Rng::new(cfg.seed, 2);
    let mut calls = vec![next_call(&mut rng, n), next_call(&mut rng, n)];
    let mut results: Vec<Option<Outcome>> = Vec::new();

    let mut setup_s = Vec::new();
    let mut setup_counts: Option<Vec<(String, String)>> = None;
    let mut flops_per_amp = 0.0;
    let mut live = None;
    for s in 0..SETUPS as u64 {
        let t = Instant::now();
        let engine = Engine::with_configs(planner(), common::executor(common::WORKERS));
        let compiled =
            match tracer.time(s, "engine.compile", None, || engine.compile(&base, &spec(n))) {
                Ok(c) => c,
                Err(e) => {
                    report.attempted += 1;
                    report.violation(format!("compile failed: {e}"));
                    continue;
                }
            };
        let first = run_call(&mut off, 0, &compiled, &calls[0]);
        setup_s.push(t.elapsed().as_secs_f64());
        let second = run_call(&mut off, 1, &compiled, &calls[1]);
        report.attempted += 2;
        let mut counts = Report::default();
        plan_counts(&mut counts, compiled.plan());
        for (label, r) in [("cold", &first), ("warm", &second)] {
            match r {
                Ok((_, stats)) => {
                    common::execution_counts(&mut counts, &format!("executor.{label}"), stats)
                }
                Err(e) => report.violation(format!("set-up {label} call failed: {e}")),
            }
        }
        if let Ok((_, stats)) = &second {
            common::check_peak(&mut report, "set-up warm call", stats);
            flops_per_amp = stats.flops as f64 / (1u64 << OPEN.len()) as f64;
            // The batched execution is itself one single execution.
            layers::check_flop_identity(
                compiled.plan(),
                stats.stem_flops + stats.frontier_flops,
                &mut counts,
            );
        }
        report.failed += counts.failed;
        report.violations.append(&mut counts.violations);
        match &setup_counts {
            None => setup_counts = Some(counts.counts),
            Some(c) if *c != counts.counts => {
                report.violation(format!("set-up {s} counters differ from set-up 0"))
            }
            Some(_) => {}
        }
        if s + 1 == SETUPS as u64 {
            results.push(first.ok().map(|r| r.0));
            results.push(second.ok().map(|r| r.0));
            live = Some(compiled);
        }
    }
    report.counts.extend(setup_counts.unwrap_or_default());
    let Some(compiled) = live else {
        return report;
    };

    let mut latencies = Vec::new();
    let mut traced_lat = Vec::new();
    let mut totals = ExecTotals::default();
    let loop_start = Instant::now();
    let deadline = loop_start + Duration::from_secs_f64(cfg.seconds);
    while Instant::now() < deadline {
        let id = calls.len() as u64;
        calls.push(next_call(&mut rng, n));
        let traced = cfg.trace && id % 2 == 1;
        let tr = if traced { &mut tracer } else { &mut off };
        let t = Instant::now();
        let out = run_call(tr, id, &compiled, calls.last().expect("pushed"));
        let lat = t.elapsed().as_secs_f64();
        report.attempted += 1;
        match out {
            Ok((outcome, stats)) => {
                if traced {
                    traced_lat.push(lat)
                } else {
                    latencies.push(lat)
                }
                common::check_peak(&mut report, "sample call", &stats);
                totals.add(&stats);
                results.push(Some(outcome));
            }
            Err(e) => {
                report.failed += 1;
                report.note(format!("call {id} failed: {e}"));
                results.push(None);
            }
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let amps_done = results.iter().skip(2).flatten().count() << OPEN.len();
    let peak_rss = common::peak_rss_mb();
    check(&base, &calls, &results, &mut report);
    if totals.buffers_allocated != 0 {
        report.violation(format!("steady state allocated {} buffers", totals.buffers_allocated));
    }

    if !cfg.trace {
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("amps_per_s", amps_done as f64 / loop_s, "1/s");
        report.latency(&latencies);
        report.metric("plan_sliced_flops", common::plan_sliced_flops(compiled.plan()), "flop");
        report.metric("peak_rss_mb", peak_rss, "MB");
        return report;
    }

    let plan = compiled.plan().clone();
    report.latency(&latencies);
    report.metric(
        "trace.overhead_share",
        stats::median(&traced_lat) / stats::median(&latencies) - 1.0,
        "ratio",
    );
    report.metric("engine.compile_miss_ms", tracer.median_ms("engine.compile"), "ms");
    report.metric("executor.execute_ms", tracer.median_ms("executor.execute_batch"), "ms");
    report.metric("sampling.sample_ms", tracer.median_ms("sampling.sample_bitstrings"), "ms");
    totals.report(&mut report);
    report.metric("executor.subtasks", plan.num_subtasks() as f64, "count");
    report.metric("executor.flops_per_amp", flops_per_amp, "flop");
    drop(compiled);
    let fixed = &calls[0].fixed;
    layers::report_plan_layers(
        &mut tracer,
        &base,
        &spec(n),
        &planner(),
        &plan,
        TIMING_REPS,
        |c| {
            c.execute_batch(fixed).expect("single execute");
        },
        &mut report,
    );
    report.notes.extend(tracer.summary());
    report.tracer = Some(tracer);
    report
}
