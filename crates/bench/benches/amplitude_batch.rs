//! Batched multi-amplitude execution vs a loop of single executions.
//!
//! The paper's headline workload evaluates *many* amplitudes of one circuit
//! (XEB-style batches of bitstrings). A loop of `execute_amplitude` calls
//! replays the whole slice-dependent stem once per bitstring; the batched
//! path (`execute_amplitudes`) contracts each subtask's projector-free
//! StemPure prefix once per slice assignment and replays the StemMixed
//! suffix and the frontier once per distinct *dependent-bits key*. This
//! bench times both sides at batch sizes
//! B ∈ {1, 8, 64} on the 3x4x10 RQC planned at `|S| = 4` (16 subtasks) and
//! emits machine-readable results to `BENCH_amplitude_batch.json` at the
//! workspace root (schema v4): the machine it ran on, then one record per
//! batch size with wall times (median and quartiles), the serial front end
//! of a batched call (`prepare_seconds`), flop bills, the measured speedup
//! and the `stem_mixed_*` dedup counters.
//!
//! Both sides run on the same compiled plan with warm branch caches and
//! buffer pools, so the comparison prices exactly what batching changes:
//! how often shared work is computed.
//!
//! **Quick mode** (`--quick` argument or `QTNSIM_BENCH_QUICK=1`): tiny
//! batches, one repetition, no criterion harness and no JSON refresh — a
//! smoke run that still drives the full batched dedup path end-to-end and
//! enforces its invariants (`peak == predicted`, mixed work actually
//! deduped). CI runs it after the test suite in both SIMD and
//! forced-scalar jobs.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use qtn_bench::{machine_json, Timing};
use qtn_circuit::{OutputSpec, RqcConfig};
use qtnsim_core::json::{array, JsonObject};
use qtnsim_core::{CompiledCircuit, Engine, ExecutorConfig, PlannerConfig};
use std::time::Instant;

/// Batch sizes swept by the full bench.
const BATCH_SIZES: [usize; 3] = [1, 8, 64];
/// Timed repetitions per measurement in the full bench (median reported).
const REPS: usize = 5;
/// Batch sizes swept in `--quick` mode (one repetition, no JSON). B=32 is
/// the smallest batch where the golden-ratio bitstrings (a low-discrepancy
/// sequence — maximally spread, the dedup worst case) actually repeat keys
/// on this plan's mixed cones, so quick mode still proves dedup end-to-end.
const QUICK_BATCH_SIZES: [usize; 2] = [1, 32];

fn bitstrings(n: usize, count: usize) -> Vec<Vec<u8>> {
    // Deterministic spread over the bitstring space (golden-ratio stride).
    (0..count)
        .map(|k| {
            let pattern = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - n.min(63));
            (0..n).map(|q| ((pattern >> (n - 1 - q)) & 1) as u8).collect()
        })
        .collect()
}

fn compile(planner: &PlannerConfig) -> (CompiledCircuit, usize) {
    let circuit = RqcConfig::small(3, 4, 10, 5).build();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(
        planner.clone(),
        ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool: true },
    );
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).expect("compile");
    assert_eq!(compiled.plan().slicing.len(), 4, "the bench regime is |S| = 4 (16 subtasks)");
    (compiled, n)
}

/// Time one batch size on both sides and return the v4 JSON record.
fn measure(compiled: &CompiledCircuit, n: usize, batch_size: usize, reps: usize) -> String {
    let bits = bitstrings(n, batch_size);
    let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();

    // One untimed lap of each side, then *interleaved* timed reps: timing
    // the two sides in separate back-to-back blocks skews small batches by
    // tens of µs of process warm-up, which at B=1 (where both sides run
    // the identical single-execute path) used to read as a phantom
    // slowdown.
    compiled.execute_amplitudes(&batch).expect("batched warm lap");
    for bs in &bits {
        compiled.execute_amplitude(bs).expect("sequential warm lap");
    }
    let mut batched_samples = Vec::with_capacity(reps);
    let mut prepare_samples = Vec::with_capacity(reps);
    let mut sequential_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let (_, report) = compiled.execute_amplitudes(&batch).expect("batched execute");
        batched_samples.push(start.elapsed().as_secs_f64());
        prepare_samples.push(report.stats.prepare_seconds);
        let start = Instant::now();
        for bs in &bits {
            compiled.execute_amplitude(bs).expect("single execute");
        }
        sequential_samples.push(start.elapsed().as_secs_f64());
    }
    let batched = Timing::of(&batched_samples);
    let sequential = Timing::of(&sequential_samples);
    let prepare = Timing::of(&prepare_samples);
    let (batched_seconds, sequential_seconds) = (batched.median, sequential.median);
    let (_, report) = compiled.execute_amplitudes(&batch).expect("stats probe");
    let stats = &report.stats;
    let speedup = sequential_seconds / batched_seconds;
    eprintln!(
        "amplitude_batch/B{batch_size}: batched={:.3}ms (front end {:.3}ms) sequential={:.3}ms \
         speedup={speedup:.2}x (pure {} flops reused, mixed {} flops deduped over {} distinct keys)",
        batched_seconds * 1e3,
        prepare.median * 1e3,
        sequential_seconds * 1e3,
        stats.stem_pure_flops_reused,
        stats.stem_mixed_flops_reused,
        stats.stem_mixed_distinct_keys,
    );
    assert_eq!(
        stats.peak_bytes_in_flight, stats.predicted_peak_bytes,
        "batched pooled peak must match the lifetime prediction"
    );
    // The golden-ratio sequence is maximally spread: its first 2^w points
    // hit *distinct* values on a w-bit dependency cone, so small batches
    // legitimately have nothing to dedup. From B=32 the bench plan's mixed
    // cones must repeat keys.
    if batch_size >= 32 {
        assert!(
            stats.stem_mixed_flops_reused > 0,
            "batched execution at B={batch_size} must dedup StemMixed work"
        );
    }
    let mut o = JsonObject::new();
    o.field_usize("batch_size", batch_size)
        .field_usize("subtasks", stats.subtasks_run)
        .field_f64("batched_seconds", batched_seconds)
        .field_f64("sequential_seconds", sequential_seconds)
        .field_raw("batched_timing", &batched.to_json())
        .field_raw("sequential_timing", &sequential.to_json())
        .field_raw("prepare_seconds", &prepare.to_json())
        .field_f64("speedup", speedup)
        .field_u64("batched_flops", stats.flops)
        .field_u64("stem_pure_flops", stats.stem_pure_flops)
        .field_u64("stem_pure_flops_reused", stats.stem_pure_flops_reused)
        .field_u64("stem_mixed_flops", stats.stem_mixed_flops)
        .field_u64("stem_mixed_flops_reused", stats.stem_mixed_flops_reused)
        .field_u64("stem_mixed_contractions", stats.stem_mixed_contractions)
        .field_u64("stem_mixed_contractions_deduped", stats.stem_mixed_contractions_deduped)
        .field_u64("stem_mixed_distinct_keys", stats.stem_mixed_distinct_keys)
        .field_u64("peak_bytes_in_flight", stats.peak_bytes_in_flight)
        .field_u64("predicted_peak_bytes", stats.predicted_peak_bytes);
    o.finish()
}

fn bench_amplitude_batch(c: &mut Criterion) {
    let planner = PlannerConfig { target_rank: 8, ..Default::default() };
    let (compiled, n) = compile(&planner);
    // Warm the branch cache, the memoized stem compile and the buffer pools
    // so both sides price the amortized steady state.
    compiled.execute_amplitude(&vec![0; n]).expect("warmup");

    // Small batches run in hundreds of µs; give them proportionally more
    // repetitions so the median is not at the mercy of scheduler noise.
    let records: Vec<String> =
        BATCH_SIZES.iter().map(|&b| measure(&compiled, n, b, REPS.max(64 / b))).collect();
    let mut config = JsonObject::new();
    config
        .field_str("circuit", "rqc-3x4x10-seed5")
        .field_usize("sliced_edges", 4)
        .field_usize("workers", 4)
        .field_raw("batch_sizes", "[1, 8, 64]");
    let mut top = JsonObject::new();
    top.field_str("schema", "qtnsim-bench/amplitude_batch")
        .field_u64("version", 4)
        .field_raw("machine", &machine_json())
        .field_raw("config", &config.finish())
        .field_raw("results", &array(records));
    let json = format!("{}\n", top.finish());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_amplitude_batch.json");
    std::fs::write(path, json).expect("write BENCH_amplitude_batch.json");

    // Criterion harness over the headline configuration, so the comparison
    // also lands in the standard bench report.
    let mut group = c.benchmark_group("amplitude_batch");
    group.sample_size(10);
    for batch_size in BATCH_SIZES {
        let bits = bitstrings(n, batch_size);
        let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();
        group.throughput(Throughput::Elements(batch_size as u64));
        group.bench_with_input(BenchmarkId::new("batched", batch_size), &batch, |b, batch| {
            b.iter(|| compiled.execute_amplitudes(batch).expect("batched execute"))
        });
        group.bench_with_input(
            BenchmarkId::new("loop_of_executes", batch_size),
            &bits,
            |b, bits| {
                b.iter(|| {
                    bits.iter()
                        .map(|bs| compiled.execute_amplitude(bs).expect("single execute").0)
                        .collect::<Vec<_>>()
                })
            },
        );
    }
    group.finish();
}

/// `--quick`: one repetition over tiny batches, invariants enforced, no
/// criterion statistics and no `BENCH_amplitude_batch.json` refresh.
fn run_quick() {
    let planner = PlannerConfig { target_rank: 8, ..Default::default() };
    let (compiled, n) = compile(&planner);
    compiled.execute_amplitude(&vec![0; n]).expect("warmup");
    for batch_size in QUICK_BATCH_SIZES {
        measure(&compiled, n, batch_size, 1);
    }
    eprintln!("amplitude_batch --quick: dedup invariants hold");
}

criterion_group!(benches, bench_amplitude_batch);

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("QTNSIM_BENCH_QUICK").map(|v| v == "1").unwrap_or(false);
    if quick {
        run_quick();
        return;
    }
    benches();
}
