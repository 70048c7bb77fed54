//! Kernel-conformance harness for the GEMM dispatch stack.
//!
//! Every dispatch path — the unrolled micro-kernels, the GEMV row/col
//! products, the streaming narrow kernel, the packed/blocked kernel, and
//! each of their SIMD variants reachable on this machine — is checked
//! against [`qtn_tensor::gemm::gemm_reference`] on a seeded-random shape
//! grid, with exact equality on integer-valued inputs and a stated
//! floating-point bound on random inputs. A dispatch-counter delta test
//! proves each path was *actually executed*, not merely selected.
//!
//! The narrow kernel gets its own coverage: every narrow shape the real
//! 3x4x10 and 4x5x12 plans dispatch, plus odd rows, odd columns and the
//! register-block boundaries of the AVX2 kernel, for both precisions.
//!
//! Tests serialize on a file-scoped mutex: the SIMD override and the
//! dispatch counters are process-global, and counter deltas are only exact
//! at quiescent points.

use qtn_circuit::{OutputSpec, RqcConfig};
use qtn_tensor::gemm::gemm_reference;
use qtn_tensor::kernels::micro_scalar;
use qtn_tensor::{
    c32, c64, dispatch_counts, set_simd_override, simd_level, Complex32, Complex64, DispatchClass,
    DispatchCounts, GemmPath, KernelPlan, SimdLevel,
};
use qtnsim_core::{plan_simulation, PlannerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

/// The override and dispatch counters are process-global; serialize every
/// test in this binary so counter deltas are exact and levels stable.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The SIMD levels it is safe to *execute* on this machine: the scalar
/// reference level always, plus the effective probed level when it is not
/// already scalar. (Forcing a level the hardware lacks would execute
/// unsupported instructions, so the grid never does that; under
/// `QTNSIM_FORCE_SCALAR` this collapses to scalar-only and the suite tests
/// exactly the forced configuration.)
fn levels() -> Vec<SimdLevel> {
    let eff = simd_level();
    if eff == SimdLevel::Scalar {
        vec![SimdLevel::Scalar]
    } else {
        vec![SimdLevel::Scalar, eff]
    }
}

/// Shape grid: degenerate dims, every micro shape, GEMV shapes, narrow
/// shapes, and blocked shapes straddling the packing block boundaries
/// (PBM = 32, PBN = 64, PBK = 64) and the scalar cache blocks (64).
fn grid() -> Vec<(usize, usize, usize)> {
    let mut g = vec![
        // Degenerate: zero dims must touch nothing and panic nowhere.
        (0, 5, 7),
        (5, 0, 7),
        (5, 7, 0),
        (0, 0, 0),
        (1, 1, 1),
        // GEMV row/col, including the degenerate dot product.
        (1, 17, 33),
        (1, 64, 128),
        (23, 1, 40),
        (1, 1, 64),
        // Narrow (two dims <= 16), including the boundary (16, 16, 16),
        // long rows and short rows (row pairs, a leftover row, odd n).
        (8, 100, 16),
        (100, 3, 8),
        (16, 16, 16),
        (64, 4, 4),
        (7, 2, 4),
        // Blocked: one below / exactly at / one above the 32/64/64 packing
        // panels, plus non-power-of-two remainders in every dimension.
        (31, 63, 65),
        (32, 64, 64),
        (33, 65, 63),
        (17, 96, 33),
        (96, 65, 129),
    ];
    // Every rank-specialized micro shape.
    for m in [1usize, 2, 4] {
        for n in [1usize, 2, 4] {
            for k in [2usize, 4, 8] {
                g.push((m, n, k));
            }
        }
    }
    g
}

/// Absolute error bound for random inputs with entries in the unit square:
/// per-term magnitude <= 2, partial sums <= 2k, so naive-summation error is
/// below ~2k^2 * eps; the two computations being compared can each carry
/// that much, and reordered/FMA paths carry less. 8x margin.
fn tol_f64(k: usize) -> f64 {
    1e-13 + 16.0 * (k as f64) * (k as f64) * f64::EPSILON
}

fn tol_f32(k: usize) -> f32 {
    1e-6 + 16.0 * (k as f32) * (k as f32) * f32::EPSILON
}

fn random_c64(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
    (0..len).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

fn random_c32(rng: &mut StdRng, len: usize) -> Vec<Complex32> {
    (0..len)
        .map(|_| c32(rng.gen_range(-1.0..1.0) as f32, rng.gen_range(-1.0..1.0) as f32))
        .collect()
}

/// Integer-valued complex entries in `[-2, 2]`: products and sums stay
/// exact integers in every kernel (FMA included), so all paths must agree
/// exactly. (The vendored rand stub has no signed integer ranges, hence the
/// usize detour.)
fn int_c64(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|_| c64(rng.gen_range(0usize..5) as f64 - 2.0, rng.gen_range(0usize..5) as f64 - 2.0))
        .collect()
}

fn apply_vs_reference_c64(plan: KernelPlan, m: usize, n: usize, k: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_c64(&mut rng, m * k);
    let b = random_c64(&mut rng, k * n);
    // Dirty C pins the accumulation contract: every path computes C += A*B.
    let dirty = random_c64(&mut rng, m * n);
    let mut c_ref = dirty.clone();
    gemm_reference(&a, &b, &mut c_ref, m, n, k);
    let mut c_got = dirty.clone();
    plan.apply(&a, &b, &mut c_got, m, n, k);
    let tol = tol_f64(k);
    for (i, (g, r)) in c_got.iter().zip(c_ref.iter()).enumerate() {
        assert!(
            (*g - *r).abs() <= tol,
            "c64 shape ({m},{n},{k}) path {:?} entry {i}: {g:?} vs {r:?} (tol {tol:e})",
            plan.taken::<Complex64>()
        );
    }
}

fn apply_vs_reference_c32(plan: KernelPlan, m: usize, n: usize, k: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_c32(&mut rng, m * k);
    let b = random_c32(&mut rng, k * n);
    let dirty = random_c32(&mut rng, m * n);
    let mut c_ref = dirty.clone();
    gemm_reference(&a, &b, &mut c_ref, m, n, k);
    let mut c_got = dirty.clone();
    plan.apply(&a, &b, &mut c_got, m, n, k);
    let tol = tol_f32(k);
    for (i, (g, r)) in c_got.iter().zip(c_ref.iter()).enumerate() {
        assert!(
            (*g - *r).abs() <= tol,
            "c32 shape ({m},{n},{k}) path {:?} entry {i}: {g:?} vs {r:?} (tol {tol:e})",
            plan.taken::<Complex32>()
        );
    }
}

/// Every auto-selected path on the full grid matches the reference within
/// the stated bound, for both scalar types, at every executable level,
/// starting from a dirty `C`.
#[test]
fn random_grid_matches_reference() {
    let _guard = lock();
    for (idx, &(m, n, k)) in grid().iter().enumerate() {
        for level in levels() {
            let plan = KernelPlan::select_with_level(m, n, k, level);
            apply_vs_reference_c64(plan, m, n, k, 0xC0DE + idx as u64);
            apply_vs_reference_c32(plan, m, n, k, 0xF00D + idx as u64);
        }
    }
}

/// Forced-class dispatch: the blocked kernel on shapes far below its packing
/// panels (pure remainder handling) and the narrow kernel on a square-ish
/// shape it would never be selected for. Both must still conform.
#[test]
fn forced_class_remainder_coverage() {
    let _guard = lock();
    let forced: &[(DispatchClass, usize, usize, usize)] = &[
        (DispatchClass::Blocked, 5, 7, 9),
        (DispatchClass::Blocked, 2, 2, 2),
        (DispatchClass::Blocked, 33, 5, 17),
        (DispatchClass::Narrow, 20, 24, 28),
        (DispatchClass::GemvRow, 1, 96, 65),
        (DispatchClass::GemvCol, 96, 1, 65),
    ];
    for (idx, &(class, m, n, k)) in forced.iter().enumerate() {
        for level in levels() {
            let plan = KernelPlan::forced(class, level);
            apply_vs_reference_c64(plan, m, n, k, 0xBEEF + idx as u64);
            apply_vs_reference_c32(plan, m, n, k, 0xFACE + idx as u64);
        }
    }
}

/// On integer-valued inputs every path is exact, so all levels and classes
/// must agree with the reference *exactly* — no tolerance.
#[test]
fn integer_inputs_are_exact_on_every_path() {
    let _guard = lock();
    for (idx, &(m, n, k)) in grid().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x1234 + idx as u64);
        let a = int_c64(&mut rng, m * k);
        let b = int_c64(&mut rng, k * n);
        let mut c_ref = vec![Complex64::ZERO; m * n];
        gemm_reference(&a, &b, &mut c_ref, m, n, k);
        for level in levels() {
            let plan = KernelPlan::select_with_level(m, n, k, level);
            let mut c_got = vec![Complex64::ZERO; m * n];
            plan.apply(&a, &b, &mut c_got, m, n, k);
            assert_eq!(
                c_got,
                c_ref,
                "integer inputs diverged: shape ({m},{n},{k}) path {:?}",
                plan.taken::<Complex64>()
            );
        }
    }
}

/// The scalar micro-kernels fix the same summation order as the reference
/// loop, so they are bit-identical to it — not merely within tolerance.
#[test]
fn scalar_micro_kernels_bit_identical_to_reference() {
    let _guard = lock();
    for m in [1usize, 2, 4] {
        for n in [1usize, 2, 4] {
            for k in [2usize, 4, 8] {
                let seed = (m * 100 + n * 10 + k) as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let a = random_c64(&mut rng, m * k);
                let b = random_c64(&mut rng, k * n);
                let dirty = random_c64(&mut rng, m * n);
                let mut c_ref = dirty.clone();
                gemm_reference(&a, &b, &mut c_ref, m, n, k);
                let mut c_got = dirty;
                micro_scalar(&a, &b, &mut c_got, m, n, k);
                for (g, r) in c_got.iter().zip(c_ref.iter()) {
                    assert_eq!(g.re.to_bits(), r.re.to_bits(), "micro ({m},{n},{k}) re bits");
                    assert_eq!(g.im.to_bits(), r.im.to_bits(), "micro ({m},{n},{k}) im bits");
                }
            }
        }
    }
}

/// Zero dims leave `C` bit-for-bit untouched on every path (for `k == 0`
/// the kernels add an exact zero or skip the product, which preserves every
/// finite value; `m == 0` / `n == 0` make `C` empty). The narrow kernel is
/// also forced onto each shape, for both precisions, with a negative zero
/// in `C` (adding `+0.0` would flip it).
#[test]
fn degenerate_dims_leave_c_untouched() {
    let _guard = lock();
    for &(m, n, k) in &[(0usize, 5usize, 7usize), (5, 0, 7), (5, 7, 0), (0, 0, 0), (1, 9, 0)] {
        let mut rng = StdRng::seed_from_u64(77);
        let a = random_c64(&mut rng, m * k);
        let b = random_c64(&mut rng, k * n);
        let dirty = random_c64(&mut rng, m * n);
        for level in levels() {
            let plan = KernelPlan::select_with_level(m, n, k, level);
            let mut c = dirty.clone();
            plan.apply(&a, &b, &mut c, m, n, k);
            for (g, d) in c.iter().zip(dirty.iter()) {
                assert_eq!(g.re.to_bits(), d.re.to_bits(), "({m},{n},{k}) clobbered C");
                assert_eq!(g.im.to_bits(), d.im.to_bits(), "({m},{n},{k}) clobbered C");
            }
        }
    }
    for &(m, n, k) in &[(0usize, 5usize, 7usize), (5, 0, 7), (5, 7, 0), (3, 9, 0), (2, 4, 0)] {
        let mut rng = StdRng::seed_from_u64(78);
        let a = random_c64(&mut rng, m * k);
        let b = random_c64(&mut rng, k * n);
        let mut dirty = random_c64(&mut rng, m * n);
        let a32 = random_c32(&mut rng, m * k);
        let b32 = random_c32(&mut rng, k * n);
        let mut dirty32 = random_c32(&mut rng, m * n);
        if let (Some(z), Some(z32)) = (dirty.first_mut(), dirty32.first_mut()) {
            *z = c64(-0.0, -0.0);
            *z32 = c32(-0.0, -0.0);
        }
        for level in levels() {
            let plan = KernelPlan::forced(DispatchClass::Narrow, level);
            let mut c = dirty.clone();
            plan.apply(&a, &b, &mut c, m, n, k);
            let mut c32s = dirty32.clone();
            plan.apply(&a32, &b32, &mut c32s, m, n, k);
            for (g, d) in c.iter().zip(dirty.iter()) {
                assert_eq!(g.re.to_bits(), d.re.to_bits(), "narrow ({m},{n},{k}) clobbered C");
                assert_eq!(g.im.to_bits(), d.im.to_bits(), "narrow ({m},{n},{k}) clobbered C");
            }
            for (g, d) in c32s.iter().zip(dirty32.iter()) {
                assert_eq!(g.re.to_bits(), d.re.to_bits(), "narrow c32 ({m},{n},{k}) clobbered C");
                assert_eq!(g.im.to_bits(), d.im.to_bits(), "narrow c32 ({m},{n},{k}) clobbered C");
            }
        }
    }
}

/// Repeated application of one frozen plan is bit-identical run to run —
/// the determinism contract the executor's replay correctness rests on.
#[test]
fn repeated_application_is_bit_identical() {
    let _guard = lock();
    // Micro, narrow (row pairs, odd rows, odd columns, long rows) and
    // blocked shapes.
    let shapes = [(4usize, 4usize, 8usize), (16, 16, 16), (64, 4, 4), (7, 3, 16), (3, 1024, 4)];
    for &(m, n, k) in shapes.iter().chain(&[(33, 65, 63)]) {
        for level in levels() {
            let plan = KernelPlan::select_with_level(m, n, k, level);
            let mut rng = StdRng::seed_from_u64(4242);
            let a = random_c64(&mut rng, m * k);
            let b = random_c64(&mut rng, k * n);
            let mut first = vec![Complex64::ZERO; m * n];
            plan.apply(&a, &b, &mut first, m, n, k);
            for _ in 0..3 {
                let mut again = vec![Complex64::ZERO; m * n];
                plan.apply(&a, &b, &mut again, m, n, k);
                for (x, y) in again.iter().zip(first.iter()) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits());
                    assert_eq!(x.im.to_bits(), y.im.to_bits());
                }
            }
        }
    }
}

/// Every narrow `(m, n, k)` in the GEMM shape histograms of the plans the
/// benchmarks run: the 3x4x10 RQC at target rank 8 (single amplitude) and
/// the 4x5x12 RQC at target rank 12 with qubits 0-5 open.
fn plan_narrow_shapes() -> Vec<(usize, usize, usize)> {
    let small = RqcConfig::small(3, 4, 10, 5).build();
    let large = RqcConfig::small(4, 5, 12, 5).build();
    let cases = [
        (&small, OutputSpec::Amplitude(vec![0; small.num_qubits()]), 8),
        (
            &large,
            OutputSpec::Open { fixed: vec![0; large.num_qubits()], open: (0..6).collect() },
            12,
        ),
    ];
    let mut shapes = Vec::new();
    for (circuit, spec, target_rank) in cases {
        let plan =
            plan_simulation(circuit, &spec, &PlannerConfig { target_rank, ..Default::default() });
        for ((m, n, k), _) in plan.gemm_shape_histogram() {
            let class = KernelPlan::select_with_level(m, n, k, SimdLevel::Scalar).class();
            if class == DispatchClass::Narrow && !shapes.contains(&(m, n, k)) {
                shapes.push((m, n, k));
            }
        }
    }
    shapes
}

/// The narrow kernel on the shapes real plans dispatch, both precisions,
/// from a dirty `C`. At a SIMD level every one of them takes the SIMD
/// kernel: no narrow shape is demoted to scalar.
#[test]
fn narrow_kernel_matches_reference_on_plan_shapes() {
    let _guard = lock();
    let shapes = plan_narrow_shapes();
    assert!(shapes.len() >= 8, "the plans must dispatch narrow shapes, got {shapes:?}");
    for (idx, &(m, n, k)) in shapes.iter().enumerate() {
        for level in levels() {
            let plan = KernelPlan::select_with_level(m, n, k, level);
            assert_eq!(plan.class(), DispatchClass::Narrow);
            assert_eq!(plan.level(), level, "({m},{n},{k}) must keep its level");
            let support = <Complex64 as qtn_tensor::Scalar>::simd_support(level);
            if support.narrow {
                assert_eq!(plan.taken::<Complex64>(), GemmPath::NarrowSimd);
                assert_eq!(plan.taken::<Complex32>(), GemmPath::NarrowSimd);
            }
            apply_vs_reference_c64(plan, m, n, k, 0xA11 + idx as u64);
            apply_vs_reference_c32(plan, m, n, k, 0xB22 + idx as u64);
        }
    }
}

/// The narrow kernel's register blocks and tails: odd and even row counts
/// (row pairs plus a leftover row), column counts on both sides of every
/// block width (1, 2 and 4 registers of 2 or 4 complex values) and the
/// scalar column tail, short and long `k`.
#[test]
fn narrow_kernel_covers_odd_rows_columns_and_block_tails() {
    let _guard = lock();
    let mut idx = 0;
    for m in [1usize, 2, 3, 7, 16] {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 16, 17, 32, 1024] {
            for k in [1usize, 2, 4, 16, 64] {
                for level in levels() {
                    let plan = KernelPlan::forced(DispatchClass::Narrow, level);
                    apply_vs_reference_c64(plan, m, n, k, 0xC33 + idx);
                    apply_vs_reference_c32(plan, m, n, k, 0xD44 + idx);
                }
                idx += 1;
            }
        }
    }
}

/// Each output element of the narrow kernel is summed in one fixed order,
/// whichever register block or tail computes it: a product equals, bit for
/// bit, the same product computed one column at a time.
#[test]
fn narrow_kernel_summation_order_is_blocking_invariant() {
    let _guard = lock();
    for &(m, n, k) in &[(5usize, 19usize, 16usize), (4, 4, 4), (3, 1024, 2)] {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let a = random_c64(&mut rng, m * k);
        let b = random_c64(&mut rng, k * n);
        let dirty = random_c64(&mut rng, m * n);
        for level in levels() {
            let plan = KernelPlan::forced(DispatchClass::Narrow, level);
            let mut whole = dirty.clone();
            plan.apply(&a, &b, &mut whole, m, n, k);
            for j in 0..n {
                let b_col: Vec<Complex64> = (0..k).map(|p| b[p * n + j]).collect();
                let mut col: Vec<Complex64> = (0..m).map(|i| dirty[i * n + j]).collect();
                plan.apply(&a, &b_col, &mut col, m, 1, k);
                for (i, got) in col.iter().enumerate() {
                    let want = whole[i * n + j];
                    assert_eq!(got.re.to_bits(), want.re.to_bits(), "({m},{n},{k}) [{i},{j}] re");
                    assert_eq!(got.im.to_bits(), want.im.to_bits(), "({m},{n},{k}) [{i},{j}] im");
                }
            }
        }
    }
}

fn bump(counts: &mut DispatchCounts, path: GemmPath) {
    match path {
        GemmPath::MicroSimd => counts.micro_simd += 1,
        GemmPath::MicroScalar => counts.micro_scalar += 1,
        GemmPath::GemvRow => counts.gemv_row += 1,
        GemmPath::GemvCol => counts.gemv_col += 1,
        GemmPath::NarrowSimd => counts.narrow_simd += 1,
        GemmPath::NarrowScalar => counts.narrow_scalar += 1,
        GemmPath::BlockedSimd => counts.blocked_simd += 1,
        GemmPath::BlockedScalar => counts.blocked_scalar += 1,
    }
}

/// Drive the grid through `apply` and prove — via process-global dispatch
/// counter deltas — that every path reachable at this machine's levels was
/// *executed*, and that the recorded counts match `KernelPlan::taken`
/// prediction exactly, path by path.
#[test]
fn every_reachable_path_is_executed_and_counted() {
    let _guard = lock();
    // (plan, m, n, k) applies: the auto grid at every level, plus forced
    // classes so blocked/narrow run even where selection would not pick them.
    let mut applies: Vec<(KernelPlan, usize, usize, usize)> = Vec::new();
    for &(m, n, k) in &grid() {
        for level in levels() {
            applies.push((KernelPlan::select_with_level(m, n, k, level), m, n, k));
        }
    }
    for level in levels() {
        applies.push((KernelPlan::forced(DispatchClass::Blocked, level), 5, 7, 9));
        applies.push((KernelPlan::forced(DispatchClass::Narrow, level), 20, 24, 28));
    }

    // Predicted per-path counts and the set of paths the grid should reach.
    let mut expected = DispatchCounts::default();
    let mut predicted: HashSet<GemmPath> = HashSet::new();
    for &(plan, _, _, _) in &applies {
        let path = plan.taken::<Complex64>();
        bump(&mut expected, path);
        predicted.insert(path);
    }

    // The grid must reach every scalar-side path unconditionally, and every
    // SIMD path Complex64 supports at the effective level.
    for path in [
        GemmPath::MicroScalar,
        GemmPath::GemvRow,
        GemmPath::GemvCol,
        GemmPath::NarrowScalar,
        GemmPath::BlockedScalar,
    ] {
        assert!(predicted.contains(&path), "grid never reaches {path:?}");
    }
    let eff = simd_level();
    if eff != SimdLevel::Scalar {
        let support = <Complex64 as qtn_tensor::Scalar>::simd_support(eff);
        // No narrow shape is demoted: at the SIMD level every narrow
        // plan of the grid takes the SIMD kernel, short rows included.
        for &(plan, m, n, k) in &applies {
            if plan.level() == eff && plan.class() == DispatchClass::Narrow && support.narrow {
                assert_eq!(plan.taken::<Complex64>(), GemmPath::NarrowSimd, "({m},{n},{k})");
            }
        }
        for (on, path) in [
            (support.micro, GemmPath::MicroSimd),
            (support.narrow, GemmPath::NarrowSimd),
            (support.blocked, GemmPath::BlockedSimd),
        ] {
            if on {
                assert!(predicted.contains(&path), "grid never reaches {path:?} at {eff:?}");
            }
        }
    }

    // Execute and compare counter deltas field by field.
    let before = dispatch_counts();
    let mut rng = StdRng::seed_from_u64(0xD15);
    for &(plan, m, n, k) in &applies {
        let a = random_c64(&mut rng, m * k);
        let b = random_c64(&mut rng, k * n);
        let mut c = vec![Complex64::ZERO; m * n];
        plan.apply(&a, &b, &mut c, m, n, k);
    }
    let after = dispatch_counts();
    assert_eq!(after.micro_simd - before.micro_simd, expected.micro_simd, "micro_simd");
    assert_eq!(after.micro_scalar - before.micro_scalar, expected.micro_scalar, "micro_scalar");
    assert_eq!(after.gemv_row - before.gemv_row, expected.gemv_row, "gemv_row");
    assert_eq!(after.gemv_col - before.gemv_col, expected.gemv_col, "gemv_col");
    assert_eq!(after.narrow_simd - before.narrow_simd, expected.narrow_simd, "narrow_simd");
    assert_eq!(after.narrow_scalar - before.narrow_scalar, expected.narrow_scalar, "narrow_scalar");
    assert_eq!(after.blocked_simd - before.blocked_simd, expected.blocked_simd, "blocked_simd");
    assert_eq!(
        after.blocked_scalar - before.blocked_scalar,
        expected.blocked_scalar,
        "blocked_scalar"
    );
}

/// The test override steers `KernelPlan::select` (via `simd_level`) and is
/// restored even if an assert fires mid-test.
#[test]
fn override_steers_selection() {
    let _guard = lock();
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_simd_override(None);
        }
    }
    let _restore = Restore;
    let base = simd_level();
    set_simd_override(Some(SimdLevel::Scalar));
    assert_eq!(simd_level(), SimdLevel::Scalar);
    let plan = KernelPlan::select(48, 48, 48);
    assert_eq!(plan.level(), SimdLevel::Scalar);
    assert_eq!(plan.taken::<Complex64>(), GemmPath::BlockedScalar);
    set_simd_override(None);
    assert_eq!(simd_level(), base, "clearing the override must restore the probed level");
}
