//! Per-layer measurements made from outside the program: a traced replica
//! of the planner, a single-threaded replay of one execution's
//! contractions, and micro-timers of single public calls.

use crate::common::Report;
use crate::stats;
use crate::trace::Tracer;
use qtn_circuit::{circuit_to_network, Circuit, OutputSpec};
use qtn_slicing::overhead::slicing_overhead;
use qtn_slicing::{lifetime_slice_finder, refine_slicing};
use qtn_tensor::gemm::gemm_auto;
use qtn_tensor::{Complex64, ContractionKernel, IndexSet};
use qtn_tensornet::{
    analyze_memory, classify_nodes, defer_projector_joins, extract_stem, greedy_path,
    random_greedy_paths, refine_path, simplify_network, ContractionTree, PathConfig,
    RefineObjective, TensorNetwork,
};
use qtnsim_core::{CompiledCircuit, Engine, PlannerConfig, SimulationPlan};
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Replay `qtnsim_core::plan_simulation` stage by stage, with one span per
/// stage under a `planner.replica` span of call `id`. The stages call the
/// same public functions with the same arguments in the same order, and the
/// result is checked against `reference` (the plan the engine built): its
/// contraction pairs and slicing must be identical, so the stage times are
/// the real planner's.
pub fn plan_replica(
    tracer: &mut Tracer,
    id: u64,
    circuit: &Circuit,
    output: &OutputSpec,
    config: &PlannerConfig,
    reference: &SimulationPlan,
    report: &mut Report,
) {
    let span = tracer.begin(id, "planner.replica", None);
    let root = Some(span);
    let build = tracer.time(id, "circuit.to_network", root, || circuit_to_network(circuit, output));
    let (network, mut work, mut pairs) = tracer.time(id, "tensornet.simplify", root, || {
        let network = TensorNetwork::from_build(&build);
        let mut work = network.clone();
        let pairs = simplify_network(&mut work);
        (network, work, pairs)
    });
    let mut tree = tracer.time(id, "tensornet.path_search", root, || {
        if config.path_candidates <= 1 {
            let cfg = PathConfig { temperature: 0.0, seed: config.seed };
            pairs.extend(greedy_path(&mut work, &cfg));
        } else {
            let candidates = random_greedy_paths(&work, config.path_candidates, config.seed);
            let (_, best) = candidates.into_iter().next().expect("no path candidates");
            pairs.extend(best);
        }
        ContractionTree::from_pairs(&network, &pairs)
    });
    let mut stem = tracer.time(id, "tensornet.refine_path", root, || {
        if config.refine_path {
            let (refined, _) =
                refine_path(&tree, RefineObjective::SunwayAdaptive { ldm_rank: 13 }, 4);
            pairs = refined;
            tree = ContractionTree::from_pairs(&network, &pairs);
        }
        extract_stem(&tree)
    });
    let mut slicing = tracer
        .time(id, "slicing.finder", root, || lifetime_slice_finder(&stem, config.target_rank));
    if config.refine {
        slicing = tracer
            .time(id, "slicing.anneal", root, || refine_slicing(&stem, &slicing, &config.refiner));
    }
    let overridable: Vec<usize> = build.projector_leaves.iter().map(|&(_, node)| node).collect();
    if config.defer_projector_joins && !slicing.sliced.is_empty() && !overridable.is_empty() {
        tracer.time(id, "tensornet.defer_joins", root, || {
            let (deferred, _) = defer_projector_joins(&tree, &slicing.sliced, &overridable, 4);
            pairs = deferred;
            tree = ContractionTree::from_pairs(&network, &pairs);
            stem = extract_stem(&tree);
        });
    }
    let log_cost = tree.total_log_cost();
    let overhead =
        tracer.time(id, "slicing.overhead", root, || slicing_overhead(&stem, &slicing.sliced));
    let classification = tracer.time(id, "tensornet.classify", root, || {
        classify_nodes(&tree, &slicing.sliced, &overridable, &build.param_leaf_vertices())
    });
    tracer.time(id, "tensornet.memory_plan", root, || {
        analyze_memory(&tree, &classification, &slicing.sliced)
    });
    tracer.end(span);

    if pairs != reference.pairs || slicing != reference.slicing {
        report.violation(format!("planner replica {id} diverged from plan_simulation"));
    }
    if log_cost.to_bits() != reference.log_cost.to_bits()
        || overhead.to_bits() != reference.overhead.to_bits()
    {
        report.violation(format!("planner replica {id}: cost or overhead differs"));
    }
}

/// Report the planner stage medians recorded by [`plan_replica`], with the
/// cost figures of the plans they built (medians over `plans`).
pub fn report_planner(tracer: &Tracer, plans: &[&SimulationPlan], report: &mut Report) {
    for (metric, span) in [
        ("circuit.to_network_ms", "circuit.to_network"),
        ("tensornet.simplify_ms", "tensornet.simplify"),
        ("tensornet.path_search_ms", "tensornet.path_search"),
        ("tensornet.refine_path_ms", "tensornet.refine_path"),
        ("tensornet.defer_joins_ms", "tensornet.defer_joins"),
        ("tensornet.classify_ms", "tensornet.classify"),
        ("tensornet.memory_plan_ms", "tensornet.memory_plan"),
        ("slicing.finder_ms", "slicing.finder"),
        ("slicing.anneal_ms", "slicing.anneal"),
    ] {
        report.metric(metric, tracer.median_ms(span), "ms");
    }
    let median = |f: &dyn Fn(&SimulationPlan) -> f64| {
        stats::median(&plans.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    report.metric("tensornet.log2_cost", median(&|p| p.log_cost), "log2flop");
    report.metric("slicing.sliced_edges", median(&|p| p.slicing.len() as f64), "count");
    report.metric("slicing.overhead", median(&|p| p.overhead), "ratio");
}

/// The contractions of one single (non-batched) warm execution of a plan:
/// every frontier contraction once and every stem contraction once per
/// slice subtask, each compiled over the operand axis orders the executor
/// sees (sliced edges removed, outputs in contraction order).
pub struct Replay {
    frontier: Vec<ContractionKernel>,
    stem: Vec<ContractionKernel>,
    subtasks: usize,
}

impl Replay {
    pub fn new(plan: &SimulationPlan) -> Replay {
        let cls = &plan.classification;
        let sliced = &plan.slicing.sliced;
        let nodes = plan.tree.nodes();
        let mut layout: Vec<Option<IndexSet>> = vec![None; nodes.len()];
        for (id, node) in nodes.iter().enumerate() {
            if let Some(vertex) = node.leaf_vertex {
                let axes = plan.build.nodes[vertex].data.indices();
                let keep =
                    |a: &qtn_tensor::IndexId| !cls.class(id).is_stem() || !sliced.contains(a);
                layout[id] = Some(IndexSet::new(axes.iter().filter(keep).collect()));
            }
        }
        let mut frontier = Vec::new();
        let mut stem = Vec::new();
        for (l, r, out) in plan.tree.schedule() {
            let kernel = ContractionKernel::new(
                layout[l].as_ref().expect("operand precedes its use"),
                layout[r].as_ref().expect("operand precedes its use"),
            );
            layout[out] = Some(kernel.output().clone());
            let class = cls.class(out);
            if class.is_stem() {
                stem.push(kernel);
            } else if class == qtn_tensornet::NodeClass::Frontier {
                frontier.push(kernel);
            }
        }
        Replay { frontier, stem, subtasks: plan.num_subtasks() }
    }

    fn runs(&self) -> impl Iterator<Item = &ContractionKernel> {
        self.frontier.iter().chain((0..self.subtasks).flat_map(move |_| self.stem.iter()))
    }

    /// Floating point operations of the replayed execution.
    pub fn flops(&self) -> u64 {
        self.runs().map(ContractionKernel::flops).sum()
    }

    /// Complex elements the replayed contractions read and write, were each
    /// operand read and the output written exactly once (computed from the
    /// GEMM shapes, not measured).
    pub fn elements_moved(&self) -> u64 {
        self.runs().map(|k| k.spec().elements_moved()).sum()
    }

    fn buffers(&self) -> [Vec<Complex64>; 5] {
        let max = self
            .runs()
            .map(|k| {
                let (m, n, kk) = k.spec().gemm_shape();
                (m * kk).max(kk * n).max(m * n)
            })
            .max()
            .unwrap_or(1);
        let mut rng = crate::common::Rng::new(0x7E45, 0);
        let mut fill = || {
            (0..max)
                .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                .collect::<Vec<_>>()
        };
        [fill(), fill(), fill(), fill(), fill()]
    }

    /// Seconds to replay every contraction through
    /// `ContractionKernel::contract_into` on one thread.
    pub fn contract_seconds(&self) -> f64 {
        let [a, b, mut sa, mut sb, mut c] = self.buffers();
        let t = Instant::now();
        for k in self.runs() {
            let (m, n, kk) = k.spec().gemm_shape();
            k.contract_into(
                &a[..m * kk],
                &b[..kk * n],
                &mut sa[..m * kk],
                &mut sb[..kk * n],
                &mut c[..m * n],
            );
        }
        let s = t.elapsed().as_secs_f64();
        std::hint::black_box(&c);
        s
    }

    /// Seconds to run only the GEMMs of the replay (`gemm_auto` over the
    /// same shapes, in the same order).
    pub fn gemm_seconds(&self) -> f64 {
        let [a, b, _, _, mut c] = self.buffers();
        let t = Instant::now();
        for k in self.runs() {
            let (m, n, kk) = k.spec().gemm_shape();
            gemm_auto(&a[..m * kk], &b[..kk * n], &mut c[..m * n], m, n, kk);
        }
        let s = t.elapsed().as_secs_f64();
        std::hint::black_box(&c);
        s
    }
}

/// Check the flop identity of the replay: its contractions must be exactly
/// the stem + frontier work (`executed_flops`) the executor reported for
/// one warm single execution of `plan`. Records `tensor.flops` as an
/// exact counter.
pub fn check_flop_identity(plan: &SimulationPlan, executed_flops: u64, report: &mut Report) {
    let flops = Replay::new(plan).flops();
    report.count("tensor.flops", flops);
    if flops != executed_flops {
        report.violation(format!(
            "tensor replay flops {flops} != executor stem + frontier flops {executed_flops}"
        ));
    }
}

/// Replay one execution of `plan` `reps` times and report the tensor-layer
/// metrics, plus `executor.overhead_share` against `single_execute_s`: the
/// median seconds of one warm single execution of the same plan on a
/// 1-worker engine.
pub fn report_tensor(
    plan: &SimulationPlan,
    reps: usize,
    single_execute_s: f64,
    report: &mut Report,
) {
    let replay = Replay::new(plan);
    let flops = replay.flops();
    let contract: Vec<f64> = (0..reps).map(|_| replay.contract_seconds()).collect();
    let gemm: Vec<f64> = (0..reps).map(|_| replay.gemm_seconds()).collect();
    let (contract, gemm) = (stats::median(&contract), stats::median(&gemm));
    let bytes = replay.elements_moved() as f64 * std::mem::size_of::<Complex64>() as f64;
    report.metric("tensor.contract_ms", contract * 1e3, "ms");
    report.metric("tensor.gemm_ms", gemm * 1e3, "ms");
    report.metric("tensor.permute_fill_share", 1.0 - gemm / contract, "ratio");
    report.metric("tensor.flops", flops as f64, "flop");
    report.metric("tensor.bytes_moved", bytes, "B");
    report.metric("tensor.ops_per_byte", flops as f64 / bytes, "flop/B");
    report.metric("tensor.gemm_gflops", flops as f64 / gemm / 1e9, "GF/s");
    report.metric("executor.overhead_share", 1.0 - contract / single_execute_s, "ratio");
    report.note(format!(
        "tensor: {} frontier + {} stem contractions x {} subtasks; bytes_moved is computed \
         from GEMM shapes; single 1-worker execute {:.4} ms",
        replay.frontier.len(),
        replay.stem.len(),
        replay.subtasks,
        single_execute_s * 1e3
    ));
}

/// The per-layer measurements every workload makes of its own circuit and
/// plan: the planner replica (`reps` times), the fingerprint and plan-cache
/// hit micro-timers, and the tensor replay (`reps` times) against the
/// median of `reps` warm single executions (`execute`) on a 1-worker
/// engine.
#[allow(clippy::too_many_arguments)]
pub fn report_plan_layers(
    tracer: &mut Tracer,
    circuit: &Circuit,
    output: &OutputSpec,
    config: &PlannerConfig,
    plan: &SimulationPlan,
    reps: usize,
    execute: impl Fn(&CompiledCircuit),
    report: &mut Report,
) {
    for id in 0..reps as u64 {
        plan_replica(tracer, id, circuit, output, config, plan, report);
    }
    report_planner(tracer, &[plan], report);
    report.metric(
        "circuit.fingerprint_us",
        median_seconds(501, || {
            std::hint::black_box(circuit.fingerprint());
        }) * 1e6,
        "us",
    );
    let engine =
        Engine::with_configs(config.clone(), crate::common::executor(crate::common::WORKERS));
    engine.compile(circuit, output).expect("compile");
    report.metric(
        "engine.compile_hit_us",
        median_seconds(201, || {
            std::hint::black_box(engine.compile(circuit, output).expect("cached compile"));
        }) * 1e6,
        "us",
    );
    let single = Engine::with_configs(config.clone(), crate::common::executor(1));
    let one = single.compile(circuit, output).expect("compile on a 1-worker engine");
    execute(&one);
    let single_s = median_seconds(reps, || execute(&one));
    report_tensor(plan, reps, single_s, report);
}
