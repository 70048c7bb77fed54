//! Compile-once parameter sweeps vs recompiling per angle.
//!
//! Variational workloads (QAOA/VQE-style) evaluate one circuit at many
//! rotation angles. Recompiling per point pays the full planning pipeline
//! (path search, stem extraction, lifetime slicing, SA refinement) plus a
//! cold branch cache for every angle; `CompiledCircuit::rebind_parameters`
//! regenerates only the rebound gate-leaf tensors and drops just the
//! branch-cache entries whose subtree contains a rebound leaf — the
//! *invalidation cone* — so each sweep point replays a fraction of the
//! branch bill and none of the planning. This bench sweeps one mid-circuit
//! FSim rotation over B points on the 3x4x10 RQC planned at `|S| = 4`
//! (16 subtasks), timing rebind+execute against compile+execute per point,
//! and emits machine-readable results to `BENCH_parameter_sweep.json` at
//! the workspace root with the amortized per-point times, the measured
//! speedup and the rebind counters (`params_rebound`,
//! `branch_entries_invalidated`, `branch_flops_survived_rebind`).
//!
//! **Quick mode** (`--quick` argument or `QTNSIM_BENCH_QUICK=1`): a short
//! sweep, one repetition, no criterion harness and no JSON refresh — a
//! smoke run that still drives the cone-scoped rebind path end-to-end and
//! enforces its invariants (bit-identity to a fresh compile, the exact
//! flop identity `survived + rebuilt == cold`, `peak == predicted`, zero
//! replans). CI runs it after the test suite in both SIMD and
//! forced-scalar jobs.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use qtn_bench::Timing;
use qtn_circuit::{Circuit, OutputSpec, ParamSlot, RqcConfig};
use qtnsim_core::json::{array, JsonObject};
use qtnsim_core::{CompiledCircuit, Engine, ExecutorConfig, PlannerConfig};
use std::time::Instant;

/// Sweep lengths (angles per sweep) timed by the full bench.
const SWEEP_POINTS: [usize; 2] = [4, 16];
/// Timed repetitions per measurement in the full bench (median reported).
const REPS: usize = 3;
/// Sweep length in `--quick` mode (one repetition, no JSON).
const QUICK_POINTS: usize = 3;
/// The amortized per-point win the sweep must demonstrate (full bench).
const MIN_SPEEDUP: f64 = 3.0;

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

fn executor() -> ExecutorConfig {
    ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool: true }
}

fn base_circuit() -> Circuit {
    RqcConfig::small(3, 4, 10, 5).build()
}

fn compile_base() -> (CompiledCircuit, usize) {
    let circuit = base_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor());
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).expect("compile");
    assert_eq!(compiled.plan().slicing.len(), 4, "the bench regime is |S| = 4 (16 subtasks)");
    (compiled, n)
}

/// The base circuit with one slot's angle replaced — what "recompile per
/// point" plans from scratch at every sweep point.
fn circuit_at(slot: &ParamSlot, theta: f64) -> Circuit {
    let base = base_circuit();
    let mut out = Circuit::new(base.num_qubits());
    for (op_index, op) in base.ops().iter().enumerate() {
        let gate = if op_index == slot.op_index() {
            op.gate.with_param(slot.param_index(), theta).expect("slot maps a param")
        } else {
            op.gate.clone()
        };
        match op.qubits.as_slice() {
            [q] => {
                out.push1(gate, *q);
            }
            [a, b] => {
                out.push2(gate, *a, *b);
            }
            _ => unreachable!("gates are 1- or 2-qubit"),
        }
    }
    out
}

/// The swept angles: deterministic, spread over (-π, π), never equal to the
/// compile-time value. `salt` makes each repetition's angle set distinct, so
/// every compile on the replan side is a genuine plan-cache miss — reusing
/// one angle set across repetitions would let the engine's fingerprint-keyed
/// plan cache absorb the replans it is supposed to measure.
fn sweep_angles(points: usize, salt: u64) -> Vec<f64> {
    (0..points)
        .map(|k| {
            let x = (k as u64 + 1).wrapping_mul(salt.wrapping_add(1));
            let u = (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
            (u - 0.5) * 6.0
        })
        .collect()
}

/// One full sweep on the rebind side: B rebind+execute laps on the shared
/// compiled circuit. Returns the wall seconds.
fn run_rebind_sweep(
    compiled: &mut CompiledCircuit,
    slot_index: usize,
    angles: &[f64],
    bits: &[u8],
) -> f64 {
    let start = Instant::now();
    for &theta in angles {
        compiled.rebind_parameters(&[(slot_index, theta)]).expect("rebind");
        compiled.execute_amplitude(bits).expect("rebound execute");
    }
    start.elapsed().as_secs_f64()
}

/// One full sweep on the replan side: B compile+execute laps, each a plan
/// built from scratch (every angle has a fresh fingerprint, so the plan
/// cache cannot help — exactly the cost a sweep without rebinding pays).
fn run_replan_sweep(engine: &Engine, slot: &ParamSlot, angles: &[f64], bits: &[u8]) -> f64 {
    let start = Instant::now();
    for &theta in angles {
        let circuit = circuit_at(slot, theta);
        let compiled =
            engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; bits.len()])).expect("replan");
        compiled.execute_amplitude(bits).expect("replanned execute");
    }
    start.elapsed().as_secs_f64()
}

/// Verify one sweep point end-to-end: bit-identity against a fresh compile
/// at the same angle, the exact branch flop identity, the pooled memory
/// invariant and zero replans. Returns the point's rebind counters.
fn verify_point(
    compiled: &mut CompiledCircuit,
    slot_index: usize,
    slot: &ParamSlot,
    theta: f64,
    bits: &[u8],
    cold_branch_flops: u64,
) -> (u64, u64, u64) {
    compiled.rebind_parameters(&[(slot_index, theta)]).expect("rebind");
    let (amp, report) = compiled.execute_amplitude(bits).expect("rebound execute");
    let stats = &report.stats;
    assert_eq!(
        stats.branch_flops + stats.branch_flops_survived_rebind,
        cold_branch_flops,
        "survived + rebuilt must equal the cold branch bill exactly"
    );
    assert_eq!(
        stats.peak_bytes_in_flight, stats.predicted_peak_bytes,
        "pooled peak must match the lifetime prediction after a rebind"
    );
    let fresh = Engine::with_configs(planner(), executor())
        .compile(&circuit_at(slot, theta), &OutputSpec::Amplitude(vec![0; bits.len()]))
        .expect("fresh compile");
    let (expected, _) = fresh.execute_amplitude(bits).expect("fresh execute");
    assert_eq!(amp, expected, "rebound amplitude must match a fresh compile bit for bit");
    (stats.params_rebound, stats.branch_entries_invalidated, stats.branch_flops_survived_rebind)
}

/// Time one sweep length on both sides and return the v1 JSON record.
fn measure(points: usize, reps: usize, quick: bool) -> String {
    let (mut compiled, n) = compile_base();
    let slots = compiled.param_slots().to_vec();
    let slot_index = slots.len() / 2; // a mid-circuit rotation
    let slot = slots[slot_index].clone();
    let bits = vec![0u8; n];
    let angles = sweep_angles(points, 0);

    // Warm both sides: branch cache, memoized stem compile and buffer pools
    // on the rebind side; worker pool on the replan side (planning itself
    // has no warm state to share — that is the point).
    let (_, cold) = compiled.execute_amplitude(&bits).expect("cold execute");
    let cold_branch_flops = cold.stats.branch_flops;
    let replan_engine = Engine::with_configs(planner(), executor());
    replan_engine
        .compile(&base_circuit(), &OutputSpec::Amplitude(vec![0; n]))
        .expect("warm compile")
        .execute_amplitude(&bits)
        .expect("warm execute");

    // Every point is verified before any timing: bit-identity, the flop
    // identity, the memory invariant, and counters for the JSON record.
    let plans_before = {
        let mut rebound = 0;
        let mut invalidated = 0;
        let mut survived = 0;
        for &theta in &angles {
            let (r, i, s) =
                verify_point(&mut compiled, slot_index, &slot, theta, &bits, cold_branch_flops);
            rebound += r;
            invalidated += i;
            survived = s;
        }
        (rebound, invalidated, survived)
    };
    let (params_rebound, entries_invalidated, survived_flops) = plans_before;
    assert_eq!(params_rebound, points as u64, "one slot update per sweep point");

    let mut rebind_samples = Vec::with_capacity(reps);
    let mut replan_samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        // Fresh angles per repetition: the replan side must pay a real
        // plan-cache miss for every point it compiles.
        let rep_angles = sweep_angles(points, rep as u64 + 1);
        rebind_samples.push(run_rebind_sweep(&mut compiled, slot_index, &rep_angles, &bits));
        replan_samples.push(run_replan_sweep(&replan_engine, &slot, &rep_angles, &bits));
    }
    let rebind_seconds = Timing::of(&rebind_samples).median;
    let replan_seconds = Timing::of(&replan_samples).median;
    let speedup = replan_seconds / rebind_seconds;
    eprintln!(
        "parameter_sweep/B{points}: rebind={:.3}ms replan={:.3}ms per point, speedup={speedup:.1}x \
         ({entries_invalidated} entries invalidated over the sweep, {survived_flops} branch flops \
         survived per rebind)",
        rebind_seconds * 1e3 / points as f64,
        replan_seconds * 1e3 / points as f64,
    );
    if !quick {
        assert!(
            speedup >= MIN_SPEEDUP,
            "rebinding must win >= {MIN_SPEEDUP}x amortized per point, got {speedup:.2}x"
        );
    }

    let mut o = JsonObject::new();
    o.field_usize("sweep_points", points)
        .field_f64("rebind_seconds_per_point", rebind_seconds / points as f64)
        .field_f64("replan_seconds_per_point", replan_seconds / points as f64)
        .field_f64("speedup", speedup)
        .field_u64("cold_branch_flops", cold_branch_flops)
        .field_u64("params_rebound", params_rebound)
        .field_u64("branch_entries_invalidated", entries_invalidated)
        .field_u64("branch_flops_survived_rebind", survived_flops);
    o.finish()
}

fn bench_parameter_sweep(c: &mut Criterion) {
    let records: Vec<String> = SWEEP_POINTS.iter().map(|&b| measure(b, REPS, false)).collect();
    let mut config = JsonObject::new();
    config
        .field_str("circuit", "rqc-3x4x10-seed5")
        .field_usize("sliced_edges", 4)
        .field_usize("workers", 4)
        .field_str("swept", "one mid-circuit fsim angle")
        .field_raw("sweep_points", "[4, 16]");
    let mut top = JsonObject::new();
    top.field_str("schema", "qtnsim-bench/parameter_sweep")
        .field_u64("version", 1)
        .field_raw("config", &config.finish())
        .field_raw("results", &array(records));
    let json = format!("{}\n", top.finish());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parameter_sweep.json");
    std::fs::write(path, json).expect("write BENCH_parameter_sweep.json");

    // Criterion harness over the rebind side's per-point cost, so it also
    // lands in the standard bench report. The replan side is deliberately
    // absent here: criterion re-runs the same closure with the same angles,
    // so after the first iteration every compile would be a plan-cache hit
    // and the statistic would measure the cache, not replanning. The
    // rebind/replan comparison lives in `measure` (fresh angles per
    // repetition) and `BENCH_parameter_sweep.json`.
    let (mut compiled, n) = compile_base();
    let slot_index = compiled.param_slots().len() / 2;
    let bits = vec![0u8; n];
    compiled.execute_amplitude(&bits).expect("warmup");
    let angles = sweep_angles(SWEEP_POINTS[0], 0);
    let mut group = c.benchmark_group("parameter_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(angles.len() as u64));
    group.bench_with_input(BenchmarkId::new("rebind", angles.len()), &angles, |b, angles| {
        b.iter(|| run_rebind_sweep(&mut compiled, slot_index, angles, &bits))
    });
    group.finish();
}

/// `--quick`: one repetition over a short sweep, invariants enforced, no
/// criterion statistics and no `BENCH_parameter_sweep.json` refresh.
fn run_quick() {
    measure(QUICK_POINTS, 1, true);
    eprintln!("parameter_sweep --quick: rebind invariants hold");
}

criterion_group!(benches, bench_parameter_sweep);

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("QTNSIM_BENCH_QUICK").map(|v| v == "1").unwrap_or(false);
    if quick {
        run_quick();
        return;
    }
    benches();
}
