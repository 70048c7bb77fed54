//! Integration tests for batched multi-amplitude execution: the four-class
//! reuse lattice must make `execute_amplitudes` an *invisible* optimisation
//! — bit-identical to a loop of single executions, pooled and unpooled —
//! while its counters prove the amortization (the StemPure prefix runs
//! exactly once per subtask regardless of batch size) and the batched
//! lifetime phase predicts the pooled peak exactly.

use qtnsim::circuit::{Gate, OutputSpec, ParamSlot, RqcConfig};
use qtnsim::core::executor::execute_amplitudes_on_pool;
use qtnsim::core::SimulationPlan;
use qtnsim::{
    try_execute_plan, Circuit, Engine, Error, ExecutionStats, ExecutorConfig, PlannerConfig,
    WorkerPool,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// A 12-qubit RQC whose plan slices 4 edges at target rank 8 (16 subtasks).
fn sliced_circuit() -> Circuit {
    RqcConfig::small(3, 4, 10, 5).build()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

fn executor(pool: bool) -> ExecutorConfig {
    ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool }
}

fn random_bitstrings(n: usize, count: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| (0..n).map(|_| rng.gen_range(0..2u32) as u8).collect()).collect()
}

#[test]
fn batched_is_bit_identical_to_sequential_pooled_and_unpooled() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let bitstrings = random_bitstrings(n, 32, 42);

    for pool in [true, false] {
        let engine = Engine::with_configs(planner(), executor(pool));
        let compiled = engine.compile(&circuit, &spec).unwrap();
        assert_eq!(compiled.plan().slicing.len(), 4, "this configuration slices |S| = 4 edges");

        let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
        let (amps, report) = compiled.execute_amplitudes(&batch).unwrap();
        assert_eq!(amps.len(), 32);
        assert_eq!(report.stats.amplitudes_in_batch, 32);

        // The sequential loop the batch replaces, on the *same* compiled
        // plan (sharing the branch cache), must agree bit for bit.
        for (bits, batched) in bitstrings.iter().zip(amps.iter()) {
            let (single, _) = compiled.execute_amplitude(bits).unwrap();
            assert_eq!(
                single, *batched,
                "batched amplitude must be bit-identical for {bits:?} (pool={pool})"
            );
        }
    }
}

#[test]
fn pure_prefix_runs_once_per_subtask_regardless_of_batch_size() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &spec).unwrap();
    let subtasks = compiled.plan().num_subtasks();
    let (_, _, pure, mixed) = compiled.plan().classification.contraction_counts();
    assert!(pure > 0, "the stem must have a StemPure prefix worth amortizing");
    assert!(mixed > 0, "projectors join the sliced spine somewhere");

    let mut pure_flops = None;
    for batch_size in [1usize, 8, 32] {
        let bitstrings = random_bitstrings(n, batch_size, batch_size as u64);
        let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
        let (_, report) = compiled.execute_amplitudes(&batch).unwrap();
        let stats = &report.stats;
        assert_eq!(
            stats.stem_pure_contractions,
            (pure * subtasks) as u64,
            "StemPure contractions must run exactly once per subtask (B={batch_size})"
        );
        assert!(stats.stem_pure_flops > 0);
        if let Some(seen) = pure_flops {
            assert_eq!(stats.stem_pure_flops, seen, "pure work is batch-size invariant");
        }
        pure_flops = Some(stats.stem_pure_flops);
        assert_eq!(
            stats.stem_pure_flops_reused,
            stats.stem_pure_flops * (batch_size as u64 - 1),
            "a loop of singles would replay the prefix per bitstring"
        );
        assert_eq!(stats.amplitudes_in_batch, batch_size as u64);
        // The frontier absorbs the rebound bits, but its subtrees dedup
        // across the batch: each contraction runs once per *distinct*
        // key, bounded by one full build below and one per bitstring
        // above.
        let (_, single) = compiled.execute_amplitude(&bitstrings[0]).unwrap();
        assert!(stats.frontier_contractions >= single.stats.frontier_contractions);
        assert!(
            stats.frontier_contractions <= single.stats.frontier_contractions * batch_size as u64
        );
        if batch_size > 1 {
            assert!(
                stats.frontier_contractions
                    < single.stats.frontier_contractions * batch_size as u64,
                "a batch of near-identical bitstrings must dedup some frontier work"
            );
        }
        // Phase split stays exhaustive.
        assert_eq!(
            stats.flops,
            stats.stem_flops + stats.frontier_flops + stats.branch_flops,
            "per-phase flop split must add up"
        );
    }
}

#[test]
fn batched_pooled_peak_matches_prediction_and_stays_zero_alloc() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &spec).unwrap();
    let bitstrings = random_bitstrings(n, 16, 7);
    let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();

    let (_, cold) = compiled.execute_amplitudes(&batch).unwrap();
    assert_eq!(
        cold.stats.predicted_peak_bytes,
        compiled.plan().predicted_batched_peak_bytes(),
        "batched executions are checked against the batched lifetime phase"
    );
    assert_eq!(
        cold.stats.peak_bytes_in_flight, cold.stats.predicted_peak_bytes,
        "the batched acquire/release sequence must mirror the simulation exactly"
    );
    assert!(cold.stats.buffers_allocated > 0, "cold pools must warm up");

    // Warm batched sweep: the steady state allocates nothing, and the peak
    // stays exactly at the prediction.
    let (_, warm) = compiled.execute_amplitudes(&batch).unwrap();
    assert_eq!(warm.stats.buffers_allocated, 0, "warm batched sweep must be allocation-free");
    assert!(warm.stats.buffers_reused > 0);
    assert_eq!(warm.stats.peak_bytes_in_flight, warm.stats.predicted_peak_bytes);

    // Batching holds the StemPure keep set across the bitstring loop, so
    // its peak can only meet or exceed the single-execution stem phase.
    assert!(
        compiled.plan().predicted_batched_peak_bytes()
            >= compiled.plan().memory_plan.stem.peak_bytes()
    );
}

#[test]
fn unsliced_plans_batch_too() {
    // A loose target leaves the plan unsliced: the batch degenerates to one
    // frontier build per bitstring reading the cached root.
    let circuit = RqcConfig::small(2, 3, 6, 9).build();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(
        PlannerConfig { target_rank: 40, ..Default::default() },
        executor(true),
    );
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    assert!(compiled.plan().slicing.is_empty());
    let bitstrings = random_bitstrings(n, 8, 3);
    let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
    let (amps, report) = compiled.execute_amplitudes(&batch).unwrap();
    assert_eq!(report.stats.stem_flops, 0, "nothing depends on a slice assignment");
    let sv = qtnsim::statevector::StateVector::simulate(&circuit);
    for (bits, amp) in bitstrings.iter().zip(amps.iter()) {
        assert!((*amp - sv.amplitude(bits)).abs() < 1e-8, "amplitude mismatch for {bits:?}");
    }
}

#[test]
fn batched_amortization_beats_the_sequential_flop_bill() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &spec).unwrap();
    let bitstrings = random_bitstrings(n, 32, 17);
    let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();

    // Warm the branch cache so both sides price steady-state work.
    compiled.execute_amplitude(&bitstrings[0]).unwrap();
    let (_, batched) = compiled.execute_amplitudes(&batch).unwrap();
    let singles: Vec<_> =
        bitstrings.iter().map(|bits| compiled.execute_amplitude(bits).unwrap().1.stats).collect();
    let sequential: u64 = singles.iter().map(|s| s.flops).sum();
    assert!(
        batched.stats.flops < sequential,
        "batching must execute fewer flops ({} vs {})",
        batched.stats.flops,
        sequential
    );
    // The stem-side saving is exactly the replayed StemPure work plus the
    // keyed-cache StemMixed skips; the frontier dedup saves on top of it.
    let sequential_stem: u64 = singles.iter().map(|s| s.stem_flops).sum();
    assert_eq!(
        batched.stats.stem_flops
            + batched.stats.stem_pure_flops_reused
            + batched.stats.stem_mixed_flops_reused,
        sequential_stem,
        "what the batched stem saved is exactly the replayed StemPure and deduped StemMixed work"
    );
    assert!(
        batched.stats.stem_mixed_flops_reused > 0,
        "32 bitstrings over narrow mixed cones must dedup some StemMixed work"
    );
    let sequential_frontier: u64 = singles.iter().map(|s| s.frontier_flops).sum();
    assert!(
        batched.stats.frontier_flops < sequential_frontier,
        "frontier dedup must save work across 32 bitstrings"
    );
}

/// A 10-qubit GHZ-style ladder (CNOT chain, then a T/CZ brickwork layer,
/// then Hadamards) planned at target rank 2: the mixed suffix's dependency
/// cones span widths 1 through all 10 output qubits, exercising the keyed
/// dedup from single-projector joins up to the fully dependent root.
fn ladder_circuit(n: usize) -> Circuit {
    let mut circuit = Circuit::new(n);
    circuit.push1(Gate::H, 0);
    for q in 0..n - 1 {
        circuit.push2(Gate::Cnot, q, q + 1);
    }
    for q in 0..n - 1 {
        circuit.push1(Gate::T, q);
        circuit.push2(Gate::Cz, q, q + 1);
    }
    for q in 0..n {
        circuit.push1(Gate::H, q);
    }
    circuit
}

#[test]
fn mixed_cones_from_one_qubit_to_full_output_stay_bit_identical() {
    let n = 10;
    let circuit = ladder_circuit(n);
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let bitstrings = random_bitstrings(n, 16, 23);

    for pool in [true, false] {
        let engine = Engine::with_configs(
            PlannerConfig { target_rank: 2, ..Default::default() },
            executor(pool),
        );
        let compiled = engine.compile(&circuit, &spec).unwrap();
        let plan = compiled.plan();
        let masks = plan.classification.projector_masks();
        let widths: Vec<usize> = plan
            .classification
            .stem_mixed_schedule()
            .iter()
            .map(|&(_, _, out)| masks.popcount(out))
            .collect();
        assert!(widths.contains(&1), "a single-projector join must be StemMixed: {widths:?}");
        assert!(
            widths.iter().any(|&w| w > 1 && w < n),
            "an intermediate-width cone must be StemMixed: {widths:?}"
        );
        assert!(widths.contains(&n), "the root depends on every output qubit: {widths:?}");

        let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
        let (amps, report) = compiled.execute_amplitudes(&batch).unwrap();
        assert!(
            report.stats.stem_mixed_flops_reused > 0,
            "narrow cones see at most 2^w distinct keys, so B=16 must dedup (pool={pool})"
        );
        if pool {
            assert_eq!(
                report.stats.peak_bytes_in_flight, report.stats.predicted_peak_bytes,
                "keyed suffix must still hit the predicted peak exactly"
            );
        }
        for (bits, batched) in bitstrings.iter().zip(amps.iter()) {
            let (single, _) = compiled.execute_amplitude(bits).unwrap();
            assert_eq!(
                single, *batched,
                "batched amplitude must be bit-identical for {bits:?} (pool={pool})"
            );
        }
    }
}

#[test]
fn each_distinct_subtask_key_contraction_runs_exactly_once_on_nested_cones() {
    // This 9-qubit RQC's mixed dependency masks are totally ordered by
    // containment (a chain), so the cost-weighted narrowest-first sort
    // groups *every* mixed node perfectly: contraction counts must hit the
    // distinct-key floor exactly, at any batch size.
    let circuit = RqcConfig::small(3, 3, 8, 13).build();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let engine = Engine::with_configs(
        PlannerConfig { target_rank: 7, ..Default::default() },
        executor(true),
    );
    let compiled = engine.compile(&circuit, &spec).unwrap();
    let plan = compiled.plan();
    let masks = plan.classification.projector_masks();
    let cones: Vec<Vec<usize>> = plan
        .classification
        .stem_mixed_schedule()
        .iter()
        .map(|&(_, _, out)| masks.ordinals(out).collect())
        .collect();
    for a in &cones {
        for b in &cones {
            assert!(
                a.iter().all(|o| b.contains(o)) || b.iter().all(|o| a.contains(o)),
                "test premise: masks form a chain"
            );
        }
    }
    let sched_len = plan.classification.stem_mixed_schedule().len() as u64;
    let subtasks = plan.num_subtasks() as u64;

    for batch_size in [8usize, 64] {
        let bitstrings = random_bitstrings(n, batch_size, 1000 + batch_size as u64);
        let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
        let (_, report) = compiled.execute_amplitudes(&batch).unwrap();
        let stats = &report.stats;
        assert!(stats.stem_mixed_distinct_keys > 0);
        assert!(stats.stem_mixed_distinct_keys <= sched_len * batch_size as u64);
        assert_eq!(
            stats.stem_mixed_contractions,
            stats.stem_mixed_distinct_keys * subtasks,
            "each distinct (subtask, dependent-bits) contraction runs exactly once (B={batch_size})"
        );
        assert_eq!(
            stats.stem_mixed_contractions + stats.stem_mixed_contractions_deduped,
            sched_len * batch_size as u64 * subtasks,
            "executed + skipped must cover the per-bitstring mixed bill (B={batch_size})"
        );
        assert_eq!(
            stats.stem_mixed_flops,
            stats.stem_flops - stats.stem_pure_flops,
            "executed mixed flops split exactly off the stem total"
        );
        if batch_size == 64 {
            assert!(
                stats.stem_mixed_contractions_deduped > 0,
                "64 random bitstrings over narrow nested cones must repeat keys"
            );
        }
    }
}

/// Brute force: the number of distinct output-bit tuples the batch presents
/// on `node`'s projector-dependency mask.
fn distinct_masked_keys(plan: &SimulationPlan, node: usize, bitstrings: &[Vec<u8>]) -> u64 {
    let qubits: Vec<usize> = plan
        .classification
        .projector_masks()
        .ordinals(node)
        .map(|o| plan.build.projector_leaves[o].0)
        .collect();
    let keys: HashSet<Vec<u8>> =
        bitstrings.iter().map(|bits| qubits.iter().map(|&q| bits[q]).collect()).collect();
    keys.len() as u64
}

#[test]
fn dedup_counters_equal_brute_force_distinct_keys() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let plan = compiled.plan();
    let cls = &plan.classification;

    // A random batch, a batch of 16 bitstrings each repeated four times
    // (interleaved), and the smallest batch the batched path runs.
    let random = random_bitstrings(n, 64, 99);
    let base = random_bitstrings(n, 16, 100);
    let repeated: Vec<Vec<u8>> = (0..64).map(|i| base[(i * 7) % 16].clone()).collect();
    let pair = random_bitstrings(n, 2, 101);
    for bitstrings in [random, repeated, pair] {
        let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
        let (_, report) = compiled.execute_amplitudes(&batch).unwrap();
        let frontier: u64 = cls
            .frontier_schedule()
            .iter()
            .map(|&(_, _, out)| distinct_masked_keys(plan, out, &bitstrings))
            .sum();
        let mixed: u64 = cls
            .stem_mixed_schedule()
            .iter()
            .map(|&(_, _, out)| distinct_masked_keys(plan, out, &bitstrings))
            .sum();
        assert_eq!(
            report.stats.frontier_contractions,
            frontier,
            "each frontier step runs once per distinct masked key (B={})",
            bitstrings.len()
        );
        assert_eq!(
            report.stats.stem_mixed_distinct_keys,
            mixed,
            "distinct StemMixed keys (B={})",
            bitstrings.len()
        );
    }
}

#[test]
fn identical_batch_builds_the_frontier_once_and_matches_a_single_execute() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let bits = random_bitstrings(n, 1, 5).remove(0);
    let batch: Vec<&[u8]> = vec![bits.as_slice(); 8];
    let (amps, report) = compiled.execute_amplitudes(&batch).unwrap();
    assert_eq!(
        report.stats.frontier_contractions,
        compiled.plan().classification.frontier_schedule().len() as u64,
        "eight copies of one bitstring present one key everywhere"
    );
    let (single, _) = compiled.execute_amplitude(&bits).unwrap();
    for amp in amps {
        assert_eq!(amp, single, "every copy must equal the single execute bit for bit");
    }
}

/// `circuit` with every slot set to its value in `angles`.
fn circuit_at(circuit: &Circuit, slots: &[ParamSlot], angles: &[f64]) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    for (i, op) in circuit.ops().iter().enumerate() {
        let mut op = op.clone();
        for (s, slot) in slots.iter().enumerate().filter(|(_, s)| s.op_index() == i) {
            op.gate = op.gate.with_param(slot.param_index(), angles[s]).expect("slot maps a param");
        }
        out.push_op(op);
    }
    out
}

#[test]
fn stacked_rebinds_match_a_fresh_compiles_loop_of_singles() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let engine = Engine::with_configs(planner(), executor(true));
    let mut compiled = engine.compile(&circuit, &spec).unwrap();
    let bitstrings = random_bitstrings(n, 24, 77);
    let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
    compiled.execute_amplitudes(&batch).unwrap();

    // Three rebinds stacked before the next execution.
    let slots = compiled.param_slots().to_vec();
    assert!(slots.len() >= 3);
    let mut angles: Vec<f64> = slots.iter().map(ParamSlot::value).collect();
    for (slot, angle) in [(0usize, 0.4), (slots.len() / 2, -1.3), (slots.len() - 1, 2.2)] {
        compiled.rebind_parameters(&[(slot, angle)]).unwrap();
        angles[slot] = angle;
    }
    let (amps, _) = compiled.execute_amplitudes(&batch).unwrap();

    let fresh = Engine::with_configs(planner(), executor(true))
        .compile(&circuit_at(&circuit, &slots, &angles), &spec)
        .unwrap();
    for (bits, amp) in bitstrings.iter().zip(amps.iter()) {
        let (single, _) = fresh.execute_amplitude(bits).unwrap();
        assert_eq!(*amp, single, "rebound batch must match a fresh compile for {bits:?}");
    }
}

#[test]
fn invalid_bit_deep_in_a_batch_is_a_typed_error() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let plan = Arc::new(compiled.plan().clone());
    let pool = WorkerPool::new(2);
    let mut bitstrings = random_bitstrings(n, 64, 8);
    bitstrings[39][5] = 2;
    let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
    let expected = Error::InvalidBit { qubit: 5, value: 2 };
    assert_eq!(compiled.execute_amplitudes(&batch).unwrap_err(), expected);
    // The executor entry point validates on its own, without the engine.
    let direct = execute_amplitudes_on_pool(&pool, &plan, &batch, &executor(true));
    assert_eq!(direct.unwrap_err(), expected);

    bitstrings[39].truncate(n - 1);
    let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
    let direct = execute_amplitudes_on_pool(&pool, &plan, &batch, &executor(true));
    assert_eq!(direct.unwrap_err(), Error::BitstringLength { expected: n, got: n - 1 });
}

#[test]
fn execution_clocks_cover_the_front_end_and_the_sweep() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let bitstrings = random_bitstrings(n, 64, 12);
    // Every path, the full replay included, prices the sweep from the
    // sweep clock alone.
    for reuse in [true, false] {
        let engine = Engine::with_configs(planner(), ExecutorConfig { reuse, ..executor(true) });
        let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
        let (_, single) = compiled.execute_amplitude(&bitstrings[0]).unwrap();
        for batch_size in [1usize, 64] {
            let batch: Vec<&[u8]> = bitstrings[..batch_size].iter().map(Vec::as_slice).collect();
            let (_, report) = compiled.execute_amplitudes(&batch).unwrap();
            for stats in [&single.stats, &report.stats] {
                assert!(
                    stats.prepare_seconds > 0.0,
                    "the front end takes time (B={batch_size}, reuse={reuse})"
                );
                assert!(stats.prepare_seconds <= stats.wall_seconds);
                // The sweep clock starts at the first submit, the wall clock
                // at entry: the call is at least its front end plus its
                // sweep.
                let sweep =
                    stats.seconds_per_subtask * stats.subtasks_run as f64 / stats.workers as f64;
                assert!(
                    stats.wall_seconds + 1e-9 >= stats.prepare_seconds + sweep,
                    "wall {} < prepare {} + sweep {sweep} (B={batch_size}, reuse={reuse})",
                    stats.wall_seconds,
                    stats.prepare_seconds
                );
            }
        }
    }
}

/// The counters of an execution that are exact (work, buffers, bytes), as
/// one comparable value.
fn exact_counters(s: &ExecutionStats) -> Vec<u64> {
    vec![
        s.subtasks_run as u64,
        s.amplitudes_in_batch,
        s.flops,
        s.stem_flops,
        s.stem_pure_flops,
        s.stem_mixed_flops,
        s.frontier_flops,
        s.branch_flops,
        s.branch_flops_reused,
        s.stem_pure_contractions,
        s.stem_mixed_contractions,
        s.frontier_contractions,
        s.branch_contractions,
        s.buffers_allocated,
        s.buffers_reused,
        s.peak_bytes_in_flight,
        s.predicted_peak_bytes,
    ]
}

#[test]
fn a_single_execute_is_a_batch_of_one() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let bitstrings = random_bitstrings(n, 4, 21);

    // Sliced amplitude plan: two fresh engines, so the first calls compare
    // cold (branch-cache build, pool warm-up) and the later ones warm.
    let amplitude = OutputSpec::Amplitude(vec![0; n]);
    let single = Engine::with_configs(planner(), executor(true)).compile(&circuit, &amplitude);
    let batched = Engine::with_configs(planner(), executor(true)).compile(&circuit, &amplitude);
    let (single, batched) = (single.unwrap(), batched.unwrap());
    assert!(single.plan().num_subtasks() > 1, "test premise: the plan is sliced");
    let stem = single.plan().memory_plan.stem.clone();
    for bits in &bitstrings {
        let (a, ra) = single.execute_amplitude(bits).unwrap();
        let (b, rb) = batched.execute_amplitudes(&[bits]).unwrap();
        assert_eq!(a, b[0], "a single execute must equal a batch of one for {bits:?}");
        assert_eq!(exact_counters(&ra.stats), exact_counters(&rb.stats), "for {bits:?}");
        assert_eq!(ra.stats.predicted_peak_bytes, stem.peak_bytes());
        assert_eq!(ra.stats.peak_bytes_in_flight, ra.stats.predicted_peak_bytes);
    }

    // Sliced open plan: `execute_batch(fixed)` against the executor entry
    // with `[fixed]`, on a second engine's plan.
    let open = OutputSpec::Open { fixed: vec![0; n], open: vec![0, 3, 7] };
    let single = Engine::with_configs(planner(), executor(true)).compile(&circuit, &open).unwrap();
    let other = Engine::with_configs(planner(), executor(true)).compile(&circuit, &open).unwrap();
    assert!(single.plan().num_subtasks() > 1, "test premise: the plan is sliced");
    let plan = Arc::new(other.plan().clone());
    let pool = WorkerPool::new(4);
    for fixed in &bitstrings {
        let (a, ra) = single.execute_batch(fixed).unwrap();
        let (b, sb) = execute_amplitudes_on_pool(&pool, &plan, &[fixed], &executor(true)).unwrap();
        let b = qtnsim::tensor::permute::permute_to_order(&b[0], a.indices());
        assert_eq!(a.data(), b.data(), "execute_batch must equal a batch of one for {fixed:?}");
        assert_eq!(exact_counters(&ra.stats), exact_counters(&sb), "for {fixed:?}");
        assert_eq!(sb.predicted_peak_bytes, plan.memory_plan.stem.peak_bytes());
    }
}

#[test]
fn try_execute_plan_runs_the_bits_the_plan_was_built_for() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let bits = random_bitstrings(n, 1, 23).remove(0);
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(bits.clone())).unwrap();
    let (direct, _) = try_execute_plan(compiled.plan(), &executor(true)).unwrap();
    let (amp, _) = compiled.execute_amplitude(&bits).unwrap();
    assert_eq!(direct.scalar_value(), amp, "the plan's own bits, bit for bit");
    let (zero, _) = compiled.execute_amplitude(&vec![0; n]).unwrap();
    assert_ne!(amp, zero, "test premise: the amplitude differs from the all-zero one");
}
