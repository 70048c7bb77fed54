//! GEMM dispatch microbench over the plan's *real* shape distribution.
//!
//! Rather than inventing matrix sizes, this bench compiles the same
//! 3x4x10 RQC plan the amplitude benches use (`target_rank = 8`, 16
//! subtasks) and asks it for its GEMM shape histogram — the exact
//! `(m, n, k)` triples the executor will dispatch, weighted by how often
//! each runs in a full sweep. For every shape it times three paths:
//!
//! * `reference` — the naive triple loop ([`qtn_tensor::gemm::gemm_reference`]);
//! * `scalar` — the shape-classified dispatch frozen at the scalar level
//!   (what `QTNSIM_FORCE_SCALAR` executes);
//! * `auto` — the same dispatch at the probed SIMD level (what production
//!   executes). Each record names both paths, so a narrow row shows the
//!   AVX2 narrow kernel next to the scalar streaming loop.
//!
//! Results go to `BENCH_gemm.json` at the workspace root. This bench sits
//! below `BENCH_amplitude_batch.json` / `BENCH_serve.json` in the stack:
//! those measure end-to-end sweeps where permutation, reduction and reuse
//! logic share the bill; this one isolates the kernel layer those benches
//! sit on, so a dispatch regression is attributable before it smears into
//! the end-to-end numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qtn_bench::{machine_json, Timing};
use qtn_circuit::{OutputSpec, RqcConfig};
use qtn_tensor::gemm::{gemm_flops, gemm_reference};
use qtn_tensor::{c64, simd_level, Complex64, KernelPlan, SimdLevel};
use qtnsim_core::json::{array, JsonObject};
use qtnsim_core::{Engine, ExecutorConfig, PlannerConfig, SimulationPlan};
use std::time::Instant;

/// Timed repetitions per measurement (the median is reported).
const REPS: usize = 5;
/// Real-flop target per timed repetition: inner iterations scale so tiny
/// micro shapes are measured over many calls, not one unmeasurable call.
const FLOPS_PER_REP: u64 = 1 << 24;
/// At most this many distinct shapes are timed (descending total-flops
/// order, so the dominant shapes always make the cut).
const MAX_SHAPES: usize = 12;

fn plan() -> SimulationPlan {
    let circuit = RqcConfig::small(3, 4, 10, 5).build();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(
        PlannerConfig { target_rank: 8, ..Default::default() },
        ExecutorConfig { workers: 1, max_subtasks: 0, reuse: true, pool: true },
    );
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).expect("compile");
    compiled.plan().clone()
}

fn deterministic_matrix(len: usize, salt: u64) -> Vec<Complex64> {
    // Golden-ratio low-discrepancy fill in [-1, 1): deterministic, cheap,
    // and free of the denormal/overflow hazards of accumulating for long.
    (0..len as u64)
        .map(|i| {
            let x = (i.wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64
                / (1u64 << 53) as f64;
            let y = (i.wrapping_add(salt ^ 0xABCD).wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 11)
                as f64
                / (1u64 << 53) as f64;
            c64(2.0 * x - 1.0, 2.0 * y - 1.0)
        })
        .collect()
}

fn time_path<F: FnMut()>(iters: usize, mut call: F) -> f64 {
    // One untimed warmup rep primes caches and the lazy SIMD probe.
    for _ in 0..iters {
        call();
    }
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                call();
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    // Median wall time of one *rep* (each rep runs `iters` kernel calls).
    Timing::of(&samples).median
}

fn bench_gemm(c: &mut Criterion) {
    let plan = plan();
    let histogram = plan.gemm_shape_histogram();
    assert!(!histogram.is_empty(), "the plan must produce contractions");
    let timed = &histogram[..histogram.len().min(MAX_SHAPES)];
    let skipped = histogram.len() - timed.len();
    if skipped > 0 {
        eprintln!("gemm: timing top {} shapes, skipping {skipped} tail shapes", timed.len());
    }

    let level = simd_level();
    // The plan's own histogram (all bond dims 2) tops out at small narrow
    // shapes; the synthetic triples exercise the packed/blocked tile the
    // way larger target ranks would.
    let synthetic: [(usize, usize, usize); 3] = [(64, 64, 64), (96, 96, 96), (64, 256, 64)];
    let shapes: Vec<((usize, usize, usize), u64, bool)> = timed
        .iter()
        .map(|&(s, count)| (s, count, false))
        .chain(synthetic.iter().map(|&s| (s, 0, true)))
        .collect();

    let mut records = Vec::new();
    for &((m, n, k), count, is_synthetic) in &shapes {
        let a = deterministic_matrix(m * k, 1);
        let b = deterministic_matrix(k * n, 2);
        let mut cbuf = vec![Complex64::ZERO; m * n];
        let shape_flops = gemm_flops(m, n, k).max(1);
        let iters = (FLOPS_PER_REP / shape_flops).clamp(1, 4_000_000) as usize;

        let reference_seconds = time_path(iters, || gemm_reference(&a, &b, &mut cbuf, m, n, k));
        let scalar_plan = KernelPlan::select_with_level(m, n, k, SimdLevel::Scalar);
        let scalar_seconds = time_path(iters, || scalar_plan.apply(&a, &b, &mut cbuf, m, n, k));
        let auto_plan = KernelPlan::select_with_level(m, n, k, level);
        let auto_seconds = time_path(iters, || auto_plan.apply(&a, &b, &mut cbuf, m, n, k));

        let vs_reference = reference_seconds / auto_seconds;
        let vs_scalar = scalar_seconds / auto_seconds;
        let path = format!("{:?}", auto_plan.taken::<Complex64>());
        let scalar_path = format!("{:?}", scalar_plan.taken::<Complex64>());
        eprintln!(
            "gemm/{m}x{n}x{k} (x{count} per sweep, {iters} iters): ref={:.1}ns scalar={:.1}ns \
             auto={:.1}ns [{path}] {vs_reference:.2}x vs reference, {vs_scalar:.2}x vs scalar",
            reference_seconds * 1e9 / iters as f64,
            scalar_seconds * 1e9 / iters as f64,
            auto_seconds * 1e9 / iters as f64,
        );

        let mut o = JsonObject::new();
        o.field_usize("m", m)
            .field_usize("n", n)
            .field_usize("k", k)
            .field_bool("synthetic", is_synthetic)
            .field_u64("count_per_sweep", count)
            .field_u64("flops_per_call", shape_flops)
            .field_usize("iters", iters)
            .field_str("path", &path)
            .field_str("scalar_path", &scalar_path)
            .field_f64("reference_seconds_per_call", reference_seconds / iters as f64)
            .field_f64("scalar_seconds_per_call", scalar_seconds / iters as f64)
            .field_f64("auto_seconds_per_call", auto_seconds / iters as f64)
            .field_f64("speedup_vs_reference", vs_reference)
            .field_f64("speedup_vs_scalar", vs_scalar);
        records.push(o.finish());
    }

    let mut config = JsonObject::new();
    config
        .field_str("circuit", "rqc-3x4x10-seed5")
        .field_usize("target_rank", 8)
        .field_usize("shapes_total", histogram.len())
        .field_usize("shapes_timed", timed.len());
    let mut top = JsonObject::new();
    top.field_str("schema", "qtnsim-bench/gemm")
        .field_u64("version", 2)
        .field_raw("machine", &machine_json())
        .field_raw("config", &config.finish())
        .field_raw("results", &array(records));
    let json = format!("{}\n", top.finish());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    std::fs::write(path, json).expect("write BENCH_gemm.json");

    // Criterion harness over the three dominant shapes so the kernel layer
    // also lands in the standard bench report.
    let mut group = c.benchmark_group("gemm");
    group.sample_size(20);
    for &((m, n, k), _) in timed.iter().take(3) {
        let a = deterministic_matrix(m * k, 1);
        let b = deterministic_matrix(k * n, 2);
        let mut cbuf = vec![Complex64::ZERO; m * n];
        group.throughput(Throughput::Elements(gemm_flops(m, n, k)));
        let auto_plan = KernelPlan::select_with_level(m, n, k, level);
        group.bench_with_input(
            BenchmarkId::new("auto", format!("{m}x{n}x{k}")),
            &(m, n, k),
            |bench, &(m, n, k)| bench.iter(|| auto_plan.apply(&a, &b, &mut cbuf, m, n, k)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
