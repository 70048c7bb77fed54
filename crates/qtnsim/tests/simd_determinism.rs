//! End-to-end SIMD determinism: the kernel dispatch introduced in the
//! tensor crate must be invisible at the simulator level except for speed.
//!
//! Two contracts are pinned here:
//!
//! 1. **Cross-path agreement.** The same circuit compiled with SIMD enabled
//!    and with the scalar override forced produces amplitudes within a
//!    documented tolerance (`1e-10` absolute — generous against the
//!    ~`1e-13` reordering error of the shapes these plans produce).
//! 2. **Determinism.** Repeated executions of one compiled plan — run
//!    sequentially or concurrently from many threads — are bit-identical,
//!    because every kernel freezes its dispatch at plan compile time and
//!    fixes its summation order.
//! 3. **No demotion.** On an AVX2+FMA host every micro, narrow and blocked
//!    contraction takes its SIMD kernel; only the GEMV shapes stay scalar.
//!
//! Tests serialize on a file-scoped mutex: the SIMD override is
//! process-global, and a concurrently running test could otherwise observe
//! a half-configured level.

use qtnsim::circuit::{OutputSpec, RqcConfig};
use qtnsim::tensor::{set_simd_override, simd_level, SimdLevel};
use qtnsim::{Circuit, Engine, ExecutorConfig, PlannerConfig};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the override even if an assert unwinds mid-test.
struct RestoreOverride;

impl Drop for RestoreOverride {
    fn drop(&mut self) {
        set_simd_override(None);
    }
}

/// The 12-qubit sliced RQC the batching tests use: 4 sliced edges,
/// 16 subtasks, a stem worth replaying.
fn sliced_circuit() -> Circuit {
    RqcConfig::small(3, 4, 10, 5).build()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

fn executor() -> ExecutorConfig {
    ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool: true }
}

fn bitstrings(n: usize) -> Vec<Vec<u8>> {
    // Deterministic spread of bitstrings without pulling in rand.
    (0..8u64).map(|s| (0..n).map(|q| (((s * 0x9E37_79B9) >> q) & 1) as u8).collect()).collect()
}

/// Documented SIMD-vs-scalar tolerance for these plans (see module docs).
const CROSS_PATH_TOL: f64 = 1e-10;

#[test]
fn simd_and_scalar_plans_agree_within_tolerance() {
    let _guard = lock();
    let _restore = RestoreOverride;
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let bits = bitstrings(n);

    // SIMD side: whatever the probe found (the override must be clear both
    // when the plan compiles and when it executes — kernels freeze their
    // level at compile time).
    set_simd_override(None);
    let simd_lv = simd_level();
    let engine = Engine::with_configs(planner(), executor());
    let compiled = engine.compile(&circuit, &spec).unwrap();
    let simd_amps: Vec<_> = bits.iter().map(|b| compiled.execute_amplitude(b).unwrap()).collect();
    for (_, report) in &simd_amps {
        assert_eq!(report.stats.simd_level, simd_lv.as_str());
        if simd_lv != SimdLevel::Scalar {
            assert!(
                report.stats.gemm_simd > 0,
                "a SIMD-levelled plan on this circuit must take SIMD paths"
            );
        }
    }

    // Scalar side: force the override *before* compiling a fresh plan, so
    // every kernel freezes at the scalar reference level.
    set_simd_override(Some(SimdLevel::Scalar));
    let engine_scalar = Engine::with_configs(planner(), executor());
    let compiled_scalar = engine_scalar.compile(&circuit, &spec).unwrap();
    for (b, (simd_amp, _)) in bits.iter().zip(simd_amps.iter()) {
        let (scalar_amp, report) = compiled_scalar.execute_amplitude(b).unwrap();
        assert_eq!(report.stats.gemm_simd, 0, "forced-scalar plans never take a SIMD path");
        assert_eq!(report.stats.simd_level, "scalar");
        assert!(
            (*simd_amp - scalar_amp).abs() <= CROSS_PATH_TOL,
            "SIMD vs scalar amplitude diverged for {b:?}: {simd_amp:?} vs {scalar_amp:?}"
        );
    }

    // The batched API agrees across paths too.
    let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();
    set_simd_override(None);
    let (batch_simd, _) = compiled.execute_amplitudes(&batch).unwrap();
    set_simd_override(Some(SimdLevel::Scalar));
    let (batch_scalar, _) = compiled_scalar.execute_amplitudes(&batch).unwrap();
    for (b, (s, sc)) in bits.iter().zip(batch_simd.iter().zip(batch_scalar.iter())) {
        assert!(
            (*s - *sc).abs() <= CROSS_PATH_TOL,
            "batched SIMD vs scalar diverged for {b:?}: {s:?} vs {sc:?}"
        );
    }
}

/// On an AVX2+FMA host the plan's only scalar GEMMs are the GEMV shapes:
/// every micro, narrow (short rows included) and blocked dispatch is
/// SIMD. Under `QTNSIM_FORCE_SCALAR=1` (or a scalar host) nothing is.
#[test]
fn only_gemv_shapes_stay_scalar() {
    let _guard = lock();
    let _restore = RestoreOverride;
    set_simd_override(None);
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor());
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let bits = bitstrings(n);
    let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();
    let single = compiled.execute_amplitude(&bits[0]).unwrap().1.stats;
    let batched = compiled.execute_amplitudes(&batch).unwrap().1.stats;
    for stats in [single, batched] {
        assert!(stats.gemm_narrow > 0, "the 3x4x10 plan dispatches narrow shapes");
        match simd_level() {
            SimdLevel::Avx2Fma => assert_eq!(
                stats.gemm_simd,
                stats.gemm_micro + stats.gemm_narrow + stats.gemm_blocked,
                "only GEMV may stay scalar at avx2-fma"
            ),
            SimdLevel::Scalar => assert_eq!(stats.gemm_simd, 0),
            // NEON routes only the blocked class to a separate kernel.
            SimdLevel::Neon => assert_eq!(stats.gemm_simd, stats.gemm_blocked),
        }
    }
}

#[test]
fn repeated_simd_runs_are_bit_identical_sequentially() {
    let _guard = lock();
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor());
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let bits = bitstrings(n);
    let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();

    let baseline: Vec<_> = bits.iter().map(|b| compiled.execute_amplitude(b).unwrap().0).collect();
    let (batch_baseline, base_report) = compiled.execute_amplitudes(&batch).unwrap();
    for _ in 0..3 {
        for (b, base) in bits.iter().zip(baseline.iter()) {
            let (amp, _) = compiled.execute_amplitude(b).unwrap();
            assert_eq!(amp.re.to_bits(), base.re.to_bits(), "re drifted for {b:?}");
            assert_eq!(amp.im.to_bits(), base.im.to_bits(), "im drifted for {b:?}");
        }
        let (amps, report) = compiled.execute_amplitudes(&batch).unwrap();
        for (amp, base) in amps.iter().zip(batch_baseline.iter()) {
            assert_eq!(amp.re.to_bits(), base.re.to_bits());
            assert_eq!(amp.im.to_bits(), base.im.to_bits());
        }
        // The dispatch tally is a pure function of the frozen plans, so it
        // repeats exactly as well.
        assert_eq!(report.stats.gemm_micro, base_report.stats.gemm_micro);
        assert_eq!(report.stats.gemm_gemv, base_report.stats.gemm_gemv);
        assert_eq!(report.stats.gemm_narrow, base_report.stats.gemm_narrow);
        assert_eq!(report.stats.gemm_blocked, base_report.stats.gemm_blocked);
        assert_eq!(report.stats.gemm_simd, base_report.stats.gemm_simd);
    }
}

#[test]
fn concurrent_simd_runs_are_bit_identical() {
    let _guard = lock();
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor());
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let bits = bitstrings(n);

    // Warm the branch cache so every thread prices identical work.
    let baseline: Vec<_> = bits.iter().map(|b| compiled.execute_amplitude(b).unwrap().0).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let compiled = &compiled;
                let bits = &bits;
                scope.spawn(move || {
                    bits.iter()
                        .map(|b| compiled.execute_amplitude(b).unwrap().0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            let amps = handle.join().unwrap();
            for (amp, base) in amps.iter().zip(baseline.iter()) {
                assert_eq!(amp.re.to_bits(), base.re.to_bits(), "concurrent re drifted");
                assert_eq!(amp.im.to_bits(), base.im.to_bits(), "concurrent im drifted");
            }
        }
    });
}
