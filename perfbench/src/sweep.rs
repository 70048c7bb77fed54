//! `rqc12-sweep`: compile-once parameter sweep on the 12-qubit RQC.
//!
//! One caller in a closed loop. Each call rebinds one seeded-random
//! parameter slot to a seeded-random angle, then evaluates 64
//! seeded-random bitstrings in one `execute_amplitudes` call. Contractions
//! are tiny here, so executor bookkeeping, StemMixed dedup and the
//! cone-scoped branch-cache rebuild dominate.
//!
//! A traced run also measures the serve layer on the same circuit
//! ([`serve::layer_probe`]), so every layer is measured on a workload the
//! benchmark keeps.

use crate::common::{self, plan_counts, AmpLog, ExecTotals, Report, Rng, RunConfig};
use crate::layers;
use crate::serve;
use crate::stats;
use crate::trace::Tracer;
use qtn_circuit::{Circuit, OutputSpec, ParamSlot, RqcConfig};
use qtn_statevector::StateVector;
use qtn_tensor::Complex64;
use qtnsim_core::{CompiledCircuit, Engine, ExecutionStats, PlannerConfig};
use std::time::{Duration, Instant};

const BATCH: usize = 64;
const SETUPS: usize = 7;
/// Repetitions of each per-layer timing in a traced run.
const TIMING_REPS: usize = 15;
/// Share of a traced run's `--seconds` spent in [`serve::layer_probe`].
const SERVE_PROBE_SHARE: f64 = 0.5;
/// Input stream of the calls (see [`Rng::new`]).
const STREAM: u64 = 1;

fn circuit() -> Circuit {
    RqcConfig::small(3, 4, 10, 5).build()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

/// One call's inputs. Calls are drawn in sequence from one stream, so the
/// check regenerates them instead of keeping them.
struct Call {
    slot: usize,
    angle: f64,
    bits: Vec<Vec<u8>>,
}

fn next_call(rng: &mut Rng, slots: usize, n: usize) -> Call {
    let slot = rng.below(slots);
    let angle = (rng.next_f64() - 0.5) * std::f64::consts::TAU;
    Call { slot, angle, bits: (0..BATCH).map(|_| rng.bits(n)).collect() }
}

/// One call: rebind, then evaluate the batch.
fn run_call(
    tracer: &mut Tracer,
    id: u64,
    compiled: &mut CompiledCircuit,
    call: &Call,
) -> Result<(Vec<Complex64>, ExecutionStats), qtnsim_core::Error> {
    let span = tracer.begin(id, "call", None);
    let root = Some(span);
    let rebound = tracer.time(id, "engine.rebind_parameters", root, || {
        compiled.rebind_parameters(&[(call.slot, call.angle)])
    });
    let refs: Vec<&[u8]> = call.bits.iter().map(Vec::as_slice).collect();
    let out = rebound.and_then(|()| {
        tracer.time(id, "executor.execute_amplitudes", root, || compiled.execute_amplitudes(&refs))
    });
    tracer.end(span);
    out.map(|(amps, report)| (amps, report.stats))
}

/// The base circuit with every slot at `values[slot]`.
fn circuit_at(base: &Circuit, slots: &[ParamSlot], values: &[f64]) -> Circuit {
    let mut out = Circuit::new(base.num_qubits());
    for (i, op) in base.ops().iter().enumerate() {
        let mut op = op.clone();
        for (s, slot) in slots.iter().enumerate().filter(|(_, s)| s.op_index() == i) {
            op.gate = op.gate.with_param(slot.param_index(), values[s]).expect("slot maps a param");
        }
        out.push_op(op);
    }
    out
}

/// Compare every call's amplitudes with the state vector at the angles in
/// force when the call ran (rebinds accumulate in call order). Runs on two
/// threads, after every timed region.
fn check(
    cfg: &RunConfig,
    base: &Circuit,
    slots: &[ParamSlot],
    results: &[Option<Vec<Complex64>>],
    report: &mut Report,
) {
    let mut rng = Rng::new(cfg.seed, STREAM);
    let mut values: Vec<f64> = slots.iter().map(ParamSlot::value).collect();
    let mut work = Vec::with_capacity(results.len());
    for result in results {
        let call = next_call(&mut rng, slots.len(), base.num_qubits());
        values[call.slot] = call.angle;
        work.push((circuit_at(base, slots, &values), call, result));
    }
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .chunks(work.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut bad = Vec::new();
                    for (circuit, call, result) in chunk {
                        let Some(amps) = result else { continue };
                        let sv = StateVector::simulate(circuit);
                        for (bits, amp) in call.bits.iter().zip(amps) {
                            let err = (*amp - sv.amplitude(bits)).abs();
                            if err.is_nan() || err > common::AMPLITUDE_TOLERANCE {
                                bad.push(format!("amplitude {bits:?} off by {err:e}"));
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle thread")).collect()
    });
    for m in mismatches {
        report.violation(m);
    }
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(cfg.trace);
    let mut off = Tracer::new(false);
    let base = circuit();
    let n = base.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let mut log = match AmpLog::create(cfg, "rqc12-sweep") {
        Ok(l) => l,
        Err(e) => {
            report.violation(format!("cannot create the result log: {e}"));
            return report;
        }
    };

    // Set-up: fresh engine → compile → first rebind + execute, timed to the
    // first result; repeated, each time from scratch. A warm second call
    // after the clock stops gives the steady-state exact counters, which
    // every set-up must reproduce.
    let slots = match Engine::with_configs(planner(), common::executor(1)).compile(&base, &spec) {
        Ok(c) => c.param_slots().to_vec(),
        Err(e) => {
            report.violation(format!("compile failed: {e}"));
            return report;
        }
    };
    let mut rng = Rng::new(cfg.seed, STREAM);
    let first_calls = [next_call(&mut rng, slots.len(), n), next_call(&mut rng, slots.len(), n)];
    let mut setup_s = Vec::new();
    let mut setup_counts: Option<Vec<(String, String)>> = None;
    let mut flops_per_amp = 0.0;
    let mut live = None;
    for s in 0..SETUPS as u64 {
        let t = Instant::now();
        let engine = Engine::with_configs(planner(), common::executor(common::WORKERS));
        let mut compiled =
            match tracer.time(s, "engine.compile", None, || engine.compile(&base, &spec)) {
                Ok(c) => c,
                Err(e) => {
                    report.attempted += 1;
                    report.violation(format!("compile failed: {e}"));
                    continue;
                }
            };
        let first = run_call(&mut off, 0, &mut compiled, &first_calls[0]);
        setup_s.push(t.elapsed().as_secs_f64());
        let second = run_call(&mut off, 1, &mut compiled, &first_calls[1]);
        report.attempted += 2;
        let mut counts = Report::default();
        plan_counts(&mut counts, compiled.plan());
        for (label, r) in [("cold", &first), ("warm", &second)] {
            match r {
                Ok((_, stats)) => {
                    common::execution_counts(&mut counts, &format!("executor.{label}"), stats)
                }
                Err(e) => counts.violation(format!("set-up {label} call failed: {e}")),
            }
        }
        if let Ok((_, stats)) = &second {
            common::check_peak(&mut counts, "set-up warm call", stats);
            flops_per_amp = stats.flops as f64 / BATCH as f64;
        }
        match compiled.execute_amplitude(&first_calls[1].bits[0]) {
            Ok((_, single)) => layers::check_flop_identity(
                compiled.plan(),
                single.stats.stem_flops + single.stats.frontier_flops,
                &mut counts,
            ),
            Err(e) => counts.violation(format!("single execute failed: {e}")),
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
            for r in [&first, &second] {
                if let Err(e) = log.push(r.as_ref().ok().map(|(a, _)| a.as_slice())) {
                    report.violation(format!("result log: {e}"));
                }
            }
            live = Some(compiled);
        }
    }
    report.counts.extend(setup_counts.unwrap_or_default());
    let Some(mut compiled) = live else {
        return report;
    };

    // The measured closed loop.
    let mut latencies = Vec::new();
    let mut traced_lat = Vec::new();
    let mut totals = ExecTotals::default();
    let mut done = 0usize;
    let mut id = 2u64;
    let loop_start = Instant::now();
    // A traced run gives half of its time to the serve-layer probe.
    let loop_seconds =
        if cfg.trace { cfg.seconds * (1.0 - SERVE_PROBE_SHARE) } else { cfg.seconds };
    let deadline = loop_start + Duration::from_secs_f64(loop_seconds);
    while Instant::now() < deadline {
        let call = next_call(&mut rng, slots.len(), n);
        // A traced run spans every other call, so the gap between the two
        // halves prices the tracing itself.
        let traced = cfg.trace && id % 2 == 1;
        let tr = if traced { &mut tracer } else { &mut off };
        let t = Instant::now();
        let out = run_call(tr, id, &mut compiled, &call);
        let lat = t.elapsed().as_secs_f64();
        report.attempted += 1;
        let amps = match out {
            Ok((amps, stats)) => {
                if traced {
                    traced_lat.push(lat)
                } else {
                    latencies.push(lat)
                }
                common::check_peak(&mut report, "sweep call", &stats);
                totals.add(&stats);
                done += 1;
                Some(amps)
            }
            Err(e) => {
                report.failed += 1;
                report.note(format!("call {id} failed: {e}"));
                None
            }
        };
        if let Err(e) = log.push(amps.as_deref()) {
            report.violation(format!("result log: {e}"));
        }
        id += 1;
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let peak_rss = common::peak_rss_mb();

    match log.read_back() {
        Ok(results) => check(cfg, &base, &slots, &results, &mut report),
        Err(e) => report.violation(format!("result log: {e}")),
    }
    if totals.buffers_allocated != 0 {
        report.violation(format!("steady state allocated {} buffers", totals.buffers_allocated));
    }

    if !cfg.trace {
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("amps_per_s", (done * BATCH) as f64 / loop_s, "1/s");
        report.latency(&latencies);
        report.metric("plan_sliced_flops", common::plan_sliced_flops(compiled.plan()), "flop");
        report.metric("peak_rss_mb", peak_rss, "MB");
        return report;
    }

    // Traced run: per-layer metrics.
    let plan = compiled.plan().clone();
    report.latency(&latencies);
    report.metric(
        "trace.overhead_share",
        stats::median(&traced_lat) / stats::median(&latencies) - 1.0,
        "ratio",
    );
    report.metric("engine.compile_miss_ms", tracer.median_ms("engine.compile"), "ms");
    report.metric("engine.rebind_us", tracer.median_ms("engine.rebind_parameters") * 1e3, "us");
    report.metric("executor.execute_ms", tracer.median_ms("executor.execute_amplitudes"), "ms");
    report.metric(
        "engine.branch_survived_ratio",
        common::ratio(totals.branch_survived, totals.branch_survived + totals.branch_rebuilt),
        "ratio",
    );
    totals.report(&mut report);
    report.metric("executor.subtasks", plan.num_subtasks() as f64, "count");
    report.metric("executor.flops_per_amp", flops_per_amp, "flop");
    let bits = &first_calls[0].bits[0];
    layers::report_plan_layers(
        &mut tracer,
        &base,
        &spec,
        &planner(),
        &plan,
        TIMING_REPS,
        |c| {
            c.execute_amplitude(bits).expect("single execute");
        },
        &mut report,
    );
    // The serve layer, on the same circuit and plan shape.
    serve::layer_probe(cfg.seed, cfg.seconds * SERVE_PROBE_SHARE, &mut tracer, &mut report);
    report.notes.extend(tracer.summary());
    report.tracer = Some(tracer);
    report
}
