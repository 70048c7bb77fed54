//! The parallel sliced executor: a stem-only sweep over slice subtasks.
//!
//! Each of the `2^|S|` assignments of the sliced edges is an independent
//! subtask: the leaf tensors carrying sliced edges are sliced to the
//! assignment's values, the contraction tree is replayed bottom-up, and the
//! subtask results are combined — *summed* over sliced edges that are
//! interior to the network (the two halves of a contracted dimension) and
//! *stacked* over sliced edges that are open outputs (the paper's
//! slice-then-stack treatment of the big output tensor).
//!
//! ## Two-level partial-contraction reuse
//!
//! The paper's central observation (§4.2) is that only the *stem* — the
//! dominant contraction spine — varies across slice assignments; branches
//! are pre-contracted once. The executor exploits this with the node
//! classification computed at plan time (see
//! [`qtn_tensornet::classify_nodes`]), splitting the tree schedule into
//! three phases with three different lifetimes:
//!
//! 1. **Branch** contractions depend on no sliced edge and no output
//!    projector. They run **once per plan**, on the first execution, and are
//!    memoized in the plan-lifetime [`BranchCache`] shared by every
//!    execution (and every clone of the plan's `Arc`).
//! 2. **Frontier** contractions depend on rebindable output projectors but
//!    on no sliced edge. They run **once per execution** — once per
//!    *distinct key* in a batch — through a compiled frontier program (one
//!    precompiled [`qtn_tensor::ContractionKernel`] per frontier step),
//!    writing into per-node value tables indexed by key id.
//! 3. **Stem** contractions depend on sliced edges. Only these are replayed
//!    for each of the `2^|S|` subtasks, seeded with the cached branch and
//!    frontier tensors.
//!
//! Setting [`ExecutorConfig::reuse`] to `false` forces the original full
//! per-subtask replay; results are **bit-identical** either way, because
//! every node's tensor is produced by the same pairwise contractions in the
//! same order — reuse only changes how often they run.
//! [`ExecutionStats`] reports the per-phase FLOP split and the work avoided
//! (`branch_flops_reused`).
//!
//! ## Compiled front end
//!
//! Everything the serial front end of an execution needs that depends only
//! on index sets is compiled once per plan and memoized beside the branch
//! cache (it survives parameter rebinds, which preserve every shape): the
//! frontier program, the stem kernels, where every stem operand is read
//! from (a worker slot, a branch-cache entry or a frontier table), and a
//! two-entry (bit 0 / bit 1) table of projector data. Per call, only the
//! *key ids* are computed: a projector leaf's id numbers its bit by first
//! occurrence in the batch, and a contraction's id interns the pair of its
//! children's ids — children's dependency masks are disjoint and cover the
//! parent's, so the pair determines the dependent bits exactly. No key is
//! hashed, no per-bitstring map is built and no frontier value is cloned:
//! stem operands read `(node, key id)` straight from the frontier tables. A
//! single execution is a batch of one.
//!
//! ## Lifetime-pooled stem sweep
//!
//! With [`ExecutorConfig::pool`] on (the default), the per-subtask stem
//! replay runs through per-worker [`BufferPool`]s instead of allocating:
//! sliced leaves are gathered straight into recycled buffers
//! ([`qtn_tensor::DenseTensor::slice_into`]), contractions run through
//! precompiled [`qtn_tensor::ContractionKernel`]s into recycled output and
//! permutation-scratch buffers, and every buffer returns to its size
//! class's free list the moment the lifetime analysis
//! ([`qtn_tensornet::lifetime`]) says it dies. After the first subtask
//! warms the free lists the hot loop performs **zero heap allocations**;
//! pools persist on the plan across executions (like the branch cache), so
//! a compiled circuit's second execution allocates no stem buffers at all.
//! Frontier tables live outside these pools (their buffers are recycled
//! across calls by the compiled program), so
//! [`ExecutionStats::buffers_allocated`] / `buffers_reused` and
//! [`ExecutionStats::peak_bytes_in_flight`] count stem traffic only, and
//! the peak matches the plan's [`ExecutionStats::predicted_peak_bytes`]
//! exactly. Results stay bit-identical: pooling changes where bytes live,
//! never what is computed. Batched executions always take the pooled sweep.
//!
//! Subtasks run on a persistent [`WorkerPool`] — threads are spawned once
//! and reused across executions, mirroring the paper's long-lived processes
//! sweeping millions of slice subtasks. Work is distributed by *static
//! striding* (worker `w` takes subtasks `w, w + W, w + 2W, …`) and the
//! per-worker partial accumulators are reduced in worker order, so repeated
//! executions of the same plan produce **bit-identical** results — the
//! floating-point summation order never depends on thread scheduling.

use crate::error::Error;
use crate::fault::{self, FaultPoint};
use crate::planner::SimulationPlan;
use crate::pool::{BufferPool, PoolCounters};
use crate::sync::lock_unpoisoned;
use qtn_tensor::{
    contract_pair, Complex64, ContractionKernel, ContractionSpec, DenseTensor, GemmPath, IndexId,
    IndexSet,
};
use qtn_tensornet::NodeClass;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Replacement leaf data keyed by network vertex id (position in
/// `SimulationPlan::build.nodes`). Produced by
/// [`qtn_circuit::NetworkBuild::rebind_output`]: executing a plan with
/// overrides retargets the output projectors without touching the plan.
pub type LeafOverrides = HashMap<usize, DenseTensor<Complex64>>;

/// Executor options.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Number of worker threads ("processes" in the paper's terminology).
    pub workers: usize,
    /// Execute at most this many subtasks (0 = all). Benchmarks use this to
    /// measure per-subtask cost without running an entire sweep.
    pub max_subtasks: usize,
    /// Reuse slice-invariant partial contractions across subtasks (the
    /// stem-only sweep): branch tensors are contracted once per plan,
    /// frontier tensors once per execution, and only Stem-class nodes are
    /// replayed per subtask. Disable to force the full per-subtask replay —
    /// the result is bit-identical, only slower.
    pub reuse: bool,
    /// Run the stem sweep on per-worker [`BufferPool`]s: every sliced leaf,
    /// intermediate and permutation-scratch buffer is recycled, so after
    /// the first subtask warms the free lists the hot loop performs zero
    /// heap allocations (pools persist across executions of the same plan,
    /// like the branch cache, so later executions allocate no stem buffers
    /// at all).
    /// Results are bit-identical to the unpooled path — the same
    /// contractions run in the same order, only the buffers differ.
    /// Effective only together with [`reuse`](Self::reuse); disable to fall
    /// back to allocate-per-contraction execution of single amplitudes.
    /// Batched executions always take the pooled sweep, which is
    /// bit-identical and never slower.
    pub pool: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            max_subtasks: 0,
            reuse: true,
            pool: true,
        }
    }
}

/// What the executor measured.
///
/// `flops` is the real work this call executed; it always equals
/// `stem_flops + frontier_flops + branch_flops`. With reuse disabled (or
/// bypassed), every contraction is replayed per subtask, so
/// `stem_flops == flops` and the other phase counters are zero.
#[derive(Debug, Clone, Default)]
pub struct ExecutionStats {
    /// Subtasks actually executed.
    pub subtasks_run: usize,
    /// Total subtasks of the plan.
    pub subtasks_total: usize,
    /// Real floating point operations executed by this call.
    pub flops: u64,
    /// Portion of `flops` spent replaying stem-class contractions across
    /// the slice subtasks (both StemPure and StemMixed).
    pub stem_flops: u64,
    /// Portion of `stem_flops` spent on StemPure contractions — the
    /// slice-dependent but projector-independent prefix. In a batched
    /// execution this runs **once per slice assignment** regardless of how
    /// many bitstrings the batch holds; in a single execution it is simply
    /// the pure share of the per-subtask replay. Zero when reuse is off
    /// (the full replay does not classify its contractions).
    pub stem_pure_flops: u64,
    /// Floating point operations a loop of single executions would have
    /// spent re-running the StemPure prefix but this call avoided by
    /// batching: `(amplitudes_in_batch − 1) ×` the executed
    /// [`stem_pure_flops`](Self::stem_pure_flops). Zero outside batched
    /// execution.
    pub stem_pure_flops_reused: u64,
    /// StemPure pairwise contractions executed by this call. In a batched
    /// execution this equals the StemPure schedule length times the number
    /// of subtasks run — independent of the batch size.
    pub stem_pure_contractions: u64,
    /// Portion of `stem_flops` spent on StemMixed contractions — the
    /// slice-dependent *and* projector-dependent suffix. A batched
    /// execution computes each mixed intermediate once per distinct
    /// `(subtask, dependent-output-bits)` key instead of once per
    /// bitstring, so this is the deduped bill actually executed. Zero when
    /// reuse is off (the full replay does not classify its contractions).
    pub stem_mixed_flops: u64,
    /// Floating point operations a loop of single executions would have
    /// spent replaying StemMixed contractions per bitstring but this call
    /// avoided by keyed deduplication: the per-`(subtask, bitstring)` mixed
    /// bill times the batch, minus the executed
    /// [`stem_mixed_flops`](Self::stem_mixed_flops). Zero outside batched
    /// execution.
    pub stem_mixed_flops_reused: u64,
    /// StemMixed pairwise contractions executed by this call. In a batched
    /// execution every mixed contraction runs once per distinct key its
    /// output depends on (per subtask), not once per bitstring.
    pub stem_mixed_contractions: u64,
    /// StemMixed pairwise contractions a per-bitstring replay would have
    /// executed but keyed deduplication skipped (the batch shared an
    /// already-computed intermediate). Zero outside batched execution.
    pub stem_mixed_contractions_deduped: u64,
    /// Sum over StemMixed contraction nodes of the number of distinct
    /// dependent-bits keys the batch presented — the structural lower bound
    /// on per-subtask mixed contractions. On spine-shaped mixed suffixes
    /// (nested dependency masks) the executed
    /// [`stem_mixed_contractions`](Self::stem_mixed_contractions) equals
    /// exactly this times the subtasks run. Zero outside batched execution.
    pub stem_mixed_distinct_keys: u64,
    /// Number of amplitudes this execution produced: the batch size of a
    /// batched multi-amplitude execution, 1 for single executions.
    pub amplitudes_in_batch: u64,
    /// Portion of `flops` spent contracting the per-execution frontier
    /// (output-projector-dependent, slice-invariant nodes) — paid once per
    /// execution, not per subtask.
    pub frontier_flops: u64,
    /// Portion of `flops` spent building the plan-lifetime branch cache.
    /// Only the execution that builds the cache pays this; every later
    /// execution sharing that plan instance reports 0.
    pub branch_flops: u64,
    /// Floating point operations a full per-subtask replay would have
    /// executed but this call avoided thanks to the reuse layer. Counts
    /// *both* cache levels: branch contractions not replayed per subtask
    /// (or at all, once the cache exists) and frontier contractions
    /// replayed once instead of per subtask.
    pub branch_flops_reused: u64,
    /// Branch-class pairwise contractions executed by this call (non-zero
    /// only while building the plan-lifetime cache).
    pub branch_contractions: u64,
    /// Frontier-class pairwise contractions executed by this call.
    pub frontier_contractions: u64,
    /// Parameter-slot updates applied by
    /// `CompiledCircuit::rebind_parameters` that this call's branch-cache
    /// build absorbed. Reported (like [`branch_flops`](Self::branch_flops))
    /// only by the execution that performs the post-rebind build; zero on a
    /// cold compile and on every execution reusing an already-built cache.
    pub params_rebound: u64,
    /// Previously cached branch entries the rebinds' invalidation cones
    /// dropped — exactly the kept roots whose parameter dependency mask
    /// intersects a rebound slot; this call rebuilt only those.
    pub branch_entries_invalidated: u64,
    /// Floating point operations of the branch entries that *survived* the
    /// rebinds and were carried over instead of re-executed. The flop
    /// identity `branch_flops_survived_rebind + branch_flops ==` the cold
    /// build's `branch_flops` holds exactly.
    pub branch_flops_survived_rebind: u64,
    /// Contractions whose GEMM dispatched to a fully unrolled
    /// rank-specialized micro-kernel (m, n ∈ {1, 2, 4}, k ∈ {2, 4, 8} — the
    /// bond-dimension-2 hot shapes).
    pub gemm_micro: u64,
    /// Contractions whose GEMM degenerated to a matrix–vector product
    /// (m == 1 or n == 1) and took the dedicated GEMV row/column kernel.
    pub gemm_gemv: u64,
    /// Contractions dispatched to the streaming narrow-matrix kernel.
    pub gemm_narrow: u64,
    /// Contractions dispatched to the packed/blocked GEMM.
    pub gemm_blocked: u64,
    /// Portion of the dispatched contractions that took a SIMD code path
    /// (AVX2+FMA or NEON) instead of the scalar reference kernels. Zero
    /// when the process dispatches at the scalar level — no SIMD hardware,
    /// `QTNSIM_FORCE_SCALAR` set, or a test override.
    pub gemm_simd: u64,
    /// SIMD level the executor dispatched at (`"scalar"`, `"neon"`,
    /// `"avx2-fma"`; see [`qtn_tensor::simd_level`]). Empty on a
    /// default-constructed stats value.
    pub simd_level: &'static str,
    /// Buffers the per-worker pools had to freshly allocate, summed over
    /// workers. On a cold pool this equals the plan's predicted slot count
    /// times [`workers`](Self::workers) (the worker count actually used,
    /// which is capped at the subtask count — idle workers allocate
    /// nothing); every later execution of the same plan reports 0 — the
    /// proof of the zero-allocation steady state. Zero when pooling is off.
    pub buffers_allocated: u64,
    /// Buffers served from pool free lists instead of the allocator,
    /// summed over workers. Zero when pooling is off.
    pub buffers_reused: u64,
    /// Exact high-water mark of bytes checked out of any single worker's
    /// buffer pool (each worker replays one subtask at a time, so this is
    /// the per-worker stem working set, not the sum across workers). Zero
    /// when pooling is off.
    pub peak_bytes_in_flight: u64,
    /// The plan-time prediction for `peak_bytes_in_flight`: the stem
    /// phase's [`qtn_tensornet::PhaseMemoryPlan::peak_bytes`]. Lifetimes of
    /// contraction intermediates are statically known, so a pooled
    /// execution satisfies `peak_bytes_in_flight <= predicted_peak_bytes`
    /// exactly (equality whenever at least one sliced subtask ran).
    pub predicted_peak_bytes: u64,
    /// Wall-clock time of the whole execution, from entry to the reduced
    /// result, including the serial front end
    /// ([`prepare_seconds`](Self::prepare_seconds)).
    pub wall_seconds: f64,
    /// Wall-clock time of the serial front end that runs before any worker
    /// starts: output rebinding, the branch-cache (re)build, the frontier
    /// and the key and dedup tables. Always `<= wall_seconds`.
    pub prepare_seconds: f64,
    /// Mean wall-clock time of one subtask on one worker, measured over the
    /// parallel sweep only — the one-off cache builds are excluded. With
    /// reuse enabled this prices a *stem-only* replay; extrapolations that
    /// need the cost of a standalone full subtask should measure with
    /// [`ExecutorConfig::reuse`] disabled.
    pub seconds_per_subtask: f64,
    /// Worker threads used.
    pub workers: usize,
}

impl ExecutionStats {
    /// Sustained flops/s over the execution.
    pub fn sustained_flops(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.flops as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Fold another execution's measurements into this one, turning a
    /// sequence of per-execution stats into a running service-level total:
    /// counters and wall time add up, high-water marks (`peak_bytes_in_flight`,
    /// `predicted_peak_bytes`, `workers`) take the maximum, and the derived
    /// `seconds_per_subtask` becomes the aggregate mean wall time per
    /// executed subtask. `qtnsim-serve` aggregates every dispatched batch
    /// through this before exporting the totals on its stats endpoint.
    pub fn absorb(&mut self, other: &ExecutionStats) {
        self.subtasks_run += other.subtasks_run;
        self.subtasks_total += other.subtasks_total;
        self.flops += other.flops;
        self.stem_flops += other.stem_flops;
        self.stem_pure_flops += other.stem_pure_flops;
        self.stem_pure_flops_reused += other.stem_pure_flops_reused;
        self.stem_pure_contractions += other.stem_pure_contractions;
        self.stem_mixed_flops += other.stem_mixed_flops;
        self.stem_mixed_flops_reused += other.stem_mixed_flops_reused;
        self.stem_mixed_contractions += other.stem_mixed_contractions;
        self.stem_mixed_contractions_deduped += other.stem_mixed_contractions_deduped;
        self.stem_mixed_distinct_keys += other.stem_mixed_distinct_keys;
        self.amplitudes_in_batch += other.amplitudes_in_batch;
        self.frontier_flops += other.frontier_flops;
        self.branch_flops += other.branch_flops;
        self.branch_flops_reused += other.branch_flops_reused;
        self.branch_contractions += other.branch_contractions;
        self.frontier_contractions += other.frontier_contractions;
        self.params_rebound += other.params_rebound;
        self.branch_entries_invalidated += other.branch_entries_invalidated;
        self.branch_flops_survived_rebind += other.branch_flops_survived_rebind;
        self.gemm_micro += other.gemm_micro;
        self.gemm_gemv += other.gemm_gemv;
        self.gemm_narrow += other.gemm_narrow;
        self.gemm_blocked += other.gemm_blocked;
        self.gemm_simd += other.gemm_simd;
        if self.simd_level.is_empty() {
            self.simd_level = other.simd_level;
        }
        self.buffers_allocated += other.buffers_allocated;
        self.buffers_reused += other.buffers_reused;
        self.peak_bytes_in_flight = self.peak_bytes_in_flight.max(other.peak_bytes_in_flight);
        self.predicted_peak_bytes = self.predicted_peak_bytes.max(other.predicted_peak_bytes);
        self.wall_seconds += other.wall_seconds;
        self.prepare_seconds += other.prepare_seconds;
        self.seconds_per_subtask =
            if self.subtasks_run > 0 { self.wall_seconds / self.subtasks_run as f64 } else { 0.0 };
        self.workers = self.workers.max(other.workers);
    }

    /// Render every counter as a JSON object (see [`crate::json`]) — the one
    /// formatting path shared by the `BENCH_*.json` writers and the
    /// `qtnsim-serve` stats endpoint.
    pub fn to_json(&self) -> String {
        let mut obj = crate::json::JsonObject::new();
        obj.field_usize("subtasks_run", self.subtasks_run)
            .field_usize("subtasks_total", self.subtasks_total)
            .field_u64("flops", self.flops)
            .field_u64("stem_flops", self.stem_flops)
            .field_u64("stem_pure_flops", self.stem_pure_flops)
            .field_u64("stem_pure_flops_reused", self.stem_pure_flops_reused)
            .field_u64("stem_pure_contractions", self.stem_pure_contractions)
            .field_u64("stem_mixed_flops", self.stem_mixed_flops)
            .field_u64("stem_mixed_flops_reused", self.stem_mixed_flops_reused)
            .field_u64("stem_mixed_contractions", self.stem_mixed_contractions)
            .field_u64("stem_mixed_contractions_deduped", self.stem_mixed_contractions_deduped)
            .field_u64("stem_mixed_distinct_keys", self.stem_mixed_distinct_keys)
            .field_u64("amplitudes_in_batch", self.amplitudes_in_batch)
            .field_u64("frontier_flops", self.frontier_flops)
            .field_u64("branch_flops", self.branch_flops)
            .field_u64("branch_flops_reused", self.branch_flops_reused)
            .field_u64("branch_contractions", self.branch_contractions)
            .field_u64("frontier_contractions", self.frontier_contractions)
            .field_u64("params_rebound", self.params_rebound)
            .field_u64("branch_entries_invalidated", self.branch_entries_invalidated)
            .field_u64("branch_flops_survived_rebind", self.branch_flops_survived_rebind)
            .field_u64("gemm_micro", self.gemm_micro)
            .field_u64("gemm_gemv", self.gemm_gemv)
            .field_u64("gemm_narrow", self.gemm_narrow)
            .field_u64("gemm_blocked", self.gemm_blocked)
            .field_u64("gemm_simd", self.gemm_simd)
            .field_str("simd_level", self.simd_level)
            .field_u64("buffers_allocated", self.buffers_allocated)
            .field_u64("buffers_reused", self.buffers_reused)
            .field_u64("peak_bytes_in_flight", self.peak_bytes_in_flight)
            .field_u64("predicted_peak_bytes", self.predicted_peak_bytes)
            .field_f64("wall_seconds", self.wall_seconds)
            .field_f64("prepare_seconds", self.prepare_seconds)
            .field_f64("seconds_per_subtask", self.seconds_per_subtask)
            .field_usize("workers", self.workers);
        obj.finish()
    }

    /// Fold a dispatch tally into the `gemm_*` counters.
    fn apply_gemm(&mut self, tally: &GemmTally) {
        self.gemm_micro += tally.micro;
        self.gemm_gemv += tally.gemv;
        self.gemm_narrow += tally.narrow;
        self.gemm_blocked += tally.blocked;
        self.gemm_simd += tally.simd;
    }
}

/// Running tally of which GEMM kernel the executor's contractions dispatch
/// to, in the buckets [`ExecutionStats`] reports. Each contraction is
/// classified through its frozen [`qtn_tensor::KernelPlan`] — the compiled
/// kernel of a stem-replay step, the per-call selection everywhere else —
/// so the tally is exact per execution and never reads the process-global
/// dispatch counters (which concurrent executions share).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GemmTally {
    /// Rank-specialized micro-kernel dispatches.
    pub micro: u64,
    /// GEMV row/column dispatches.
    pub gemv: u64,
    /// Streaming narrow-kernel dispatches.
    pub narrow: u64,
    /// Packed/blocked GEMM dispatches.
    pub blocked: u64,
    /// Dispatches (of any class) that took a SIMD code path.
    pub simd: u64,
}

impl GemmTally {
    fn record(&mut self, path: GemmPath, times: u64) {
        match path {
            GemmPath::MicroSimd => {
                self.micro += times;
                self.simd += times;
            }
            GemmPath::MicroScalar => self.micro += times,
            GemmPath::GemvRow | GemmPath::GemvCol => self.gemv += times,
            GemmPath::NarrowSimd => {
                self.narrow += times;
                self.simd += times;
            }
            GemmPath::NarrowScalar => self.narrow += times,
            GemmPath::BlockedSimd => {
                self.blocked += times;
                self.simd += times;
            }
            GemmPath::BlockedScalar => self.blocked += times,
        }
    }

    /// Record a contraction executed through per-call dispatch
    /// ([`contract_pair`] selects from the spec's shape at call time).
    fn record_spec(&mut self, spec: &ContractionSpec) {
        self.record(spec.kernel_plan().taken::<Complex64>(), 1);
    }

    /// Record `times` contractions executed through a precompiled kernel
    /// (whose dispatch was frozen at [`ContractionKernel::new`] time).
    fn record_kernel(&mut self, kernel: &ContractionKernel, times: u64) {
        self.record(kernel.gemm_plan().taken::<Complex64>(), times);
    }

    fn add(&mut self, other: &GemmTally) {
        self.micro += other.micro;
        self.gemv += other.gemv;
        self.narrow += other.narrow;
        self.blocked += other.blocked;
        self.simd += other.simd;
    }
}

// ---------------------------------------------------------------------------
// Partial-contraction reuse: branch cache
// ---------------------------------------------------------------------------

/// The plan-lifetime cache of Branch-class tensors: the roots of the maximal
/// subtrees that depend on no sliced edge and no output projector, contracted
/// once and reused by every execution of the plan (§4.2 of the paper:
/// branches are pre-contracted, only the stem is swept per slice assignment).
///
/// Built lazily by the first reusing execution and memoized inside
/// [`SimulationPlan`], whose clones all *share* the cache: every execution
/// of the plan or any clone of it — including concurrent ones, compiles
/// served from the engine's plan cache, and repeated
/// [`execute_plan`]/[`try_execute_plan`] calls on the same plan value —
/// reuses one build.
#[derive(Debug, Clone)]
pub struct BranchCache {
    /// Kept tensors by tree-node id (the classification's `branch_keep`
    /// set, `None` everywhere else): a dense table, so compiled programs
    /// read an entry by index, never by hash.
    tensors: Vec<Option<DenseTensor<Complex64>>>,
    /// Per kept root: the `(flops, contractions)` cost of producing its
    /// subtree. Every branch-schedule step is owned by exactly one kept
    /// root (each node feeds exactly one parent), so these partition the
    /// cold bill — the attribution a parameter rebind uses to price the
    /// entries it carries over versus the cone it drops.
    entry_costs: HashMap<usize, (u64, u64)>,
    /// Real floating point operations spent building the cache — only the
    /// contractions *this* build executed, excluding carried-over entries.
    pub flops: u64,
    /// Pairwise contractions performed by this build.
    pub contractions: u64,
    /// Kernel-dispatch tally of the contractions this build executed.
    pub gemm: GemmTally,
    /// The full cold bill: flops of every entry, whether executed by this
    /// build or carried over from a pre-rebind cache. On a cold build this
    /// equals [`flops`](Self::flops); after a partial (post-rebind) build,
    /// `cold_flops == flops + survived_flops` exactly.
    pub cold_flops: u64,
    /// Flops of the entries that survived parameter rebinds and were
    /// carried over instead of re-executed. Zero on cold builds.
    pub survived_flops: u64,
    /// Previously cached entries the rebinds invalidated (and this build
    /// therefore re-executed). Zero on cold builds.
    pub entries_invalidated: u64,
    /// Parameter-slot updates absorbed by this build. Zero on cold builds.
    pub params_rebound: u64,
}

impl BranchCache {
    /// The cached tensor of a tree node, if this node is a kept branch root.
    pub fn tensor(&self, node: usize) -> Option<&DenseTensor<Complex64>> {
        self.tensors.get(node).and_then(Option::as_ref)
    }

    /// The `(flops, contractions)` attributed to producing a kept root's
    /// subtree, if this node is a kept branch root.
    pub fn entry_cost(&self, node: usize) -> Option<(u64, u64)> {
        self.entry_costs.get(&node).copied()
    }

    /// Number of cached tensors.
    pub fn len(&self) -> usize {
        self.tensors.iter().flatten().count()
    }

    /// True if the cache holds no tensors (fully sliced/overridden trees).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Branch-cache entries surviving a parameter rebind, staged on the plan
/// clone [`crate::CompiledCircuit::rebind_parameters`] produces and
/// consumed by that plan's next branch-cache build: the build
/// replays only the subtrees of the invalidated cone and installs the
/// surviving tensors verbatim, with their original cost attribution.
#[derive(Debug, Clone, Default)]
pub struct BranchSeed {
    /// Surviving kept entries: tree-node id → (tensor, flops, contractions).
    pub(crate) surviving: HashMap<usize, (DenseTensor<Complex64>, u64, u64)>,
    /// Previously cached entries the rebinds' cones dropped, accumulated
    /// across rebinds stacked before the next execution.
    pub(crate) entries_invalidated: u64,
    /// Parameter-slot updates applied since the last cache build.
    pub(crate) params_rebound: u64,
}

/// Take a contraction operand out of a slot table: each internal node
/// feeds exactly one parent, so its tensor is consumed.
fn take_slot(
    slots: &mut [Option<DenseTensor<Complex64>>],
    id: usize,
) -> Result<DenseTensor<Complex64>, Error> {
    slots[id].take().ok_or_else(|| Error::Internal(format!("operand {id} missing from slots")))
}

/// Map every Branch-class node to the kept root whose subtree owns it.
/// Each internal node feeds exactly one parent and the kept roots are the
/// maximal branch subtrees, so the ownership is a partition: walking down
/// from each kept root through the schedule's producer edges visits every
/// branch node exactly once.
fn branch_owners(cls: &qtn_tensornet::NodeClassification) -> HashMap<usize, usize> {
    let produced: HashMap<usize, (usize, usize)> =
        cls.branch_schedule().iter().map(|&(l, r, out)| (out, (l, r))).collect();
    let mut owner = HashMap::new();
    for &root in cls.branch_keep() {
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            owner.insert(node, root);
            if let Some(&(l, r)) = produced.get(&node) {
                stack.push(l);
                stack.push(r);
            }
        }
    }
    owner
}

/// Contract every Branch-class node bottom-up and keep the branch roots.
/// Runs once per plan; the tensors depend only on the circuit, so the same
/// worker-order-independent pairwise contractions make the cache — and with
/// it every later result — bit-identical to a full replay.
///
/// When the plan carries a [`BranchSeed`] (a parameter rebind staged
/// surviving entries on it), only the subtrees of the invalidated cone are
/// replayed: surviving kept tensors install verbatim, their leaves and
/// contractions are skipped, and the cache's accounting splits the cold
/// bill into executed and survived shares so the flop identity
/// `survived + executed == cold` is exact.
fn build_branch_cache(plan: &SimulationPlan) -> Result<BranchCache, Error> {
    let cls = &plan.classification;
    let owner = branch_owners(cls);
    let seed = plan.branch_seed.as_deref();
    let survives = |root: usize| seed.is_some_and(|s| s.surviving.contains_key(&root));

    let num_nodes = plan.tree.nodes().len();
    let mut slots: Vec<Option<DenseTensor<Complex64>>> = vec![None; num_nodes];
    for (node_id, node) in plan.tree.nodes().iter().enumerate() {
        if let Some(vertex) = node.leaf_vertex {
            if cls.class(node_id) == NodeClass::Branch
                && owner.get(&node_id).is_some_and(|&root| !survives(root))
            {
                slots[node_id] = Some(plan.build.nodes[vertex].data.clone());
            }
        }
    }
    let mut flops = 0u64;
    let mut contractions = 0u64;
    let mut gemm = GemmTally::default();
    let mut step_costs: HashMap<usize, (u64, u64)> = HashMap::new();
    for &(l, r, out) in cls.branch_schedule() {
        let root = *owner
            .get(&out)
            .ok_or_else(|| Error::Internal(format!("branch step {out} has no kept root")))?;
        if survives(root) {
            continue;
        }
        let a = take_slot(&mut slots, l)?;
        let b = take_slot(&mut slots, r)?;
        let spec = ContractionSpec::new(a.indices(), b.indices());
        flops += spec.flops();
        contractions += 1;
        let entry = step_costs.entry(root).or_insert((0, 0));
        entry.0 += spec.flops();
        entry.1 += 1;
        gemm.record_spec(&spec);
        slots[out] = Some(contract_pair(&a, &b));
    }
    let mut tensors = vec![None; num_nodes];
    let mut entry_costs = HashMap::with_capacity(cls.branch_keep().len());
    let mut survived_flops = 0u64;
    for &id in cls.branch_keep() {
        if let Some((t, entry_flops, entry_contractions)) = seed.and_then(|s| s.surviving.get(&id))
        {
            tensors[id] = Some(t.clone());
            entry_costs.insert(id, (*entry_flops, *entry_contractions));
            survived_flops += entry_flops;
            continue;
        }
        tensors[id] = Some(take_slot(&mut slots, id)?);
        entry_costs.insert(id, step_costs.get(&id).copied().unwrap_or((0, 0)));
    }
    Ok(BranchCache {
        tensors,
        entry_costs,
        flops,
        contractions,
        gemm,
        cold_flops: flops + survived_flops,
        survived_flops,
        entries_invalidated: seed.map_or(0, |s| s.entries_invalidated),
        params_rebound: seed.map_or(0, |s| s.params_rebound),
    })
}

// ---------------------------------------------------------------------------
// The compiled program: frontier and stem kernels, resolved operands
// ---------------------------------------------------------------------------

/// Where a compiled contraction reads an operand from. Resolved once, when
/// the program is compiled, so replaying a step looks nothing up by key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// A buffer in the worker's slot table: a sliced leaf or a stem
    /// intermediate.
    Slot,
    /// A plan-lifetime branch-cache entry.
    Branch,
    /// A frontier table entry, selected by the bitstring's key id.
    Frontier,
}

impl Operand {
    fn of(class: NodeClass) -> Self {
        match class {
            NodeClass::Branch => Operand::Branch,
            NodeClass::Frontier => Operand::Frontier,
            NodeClass::StemPure | NodeClass::StemMixed => Operand::Slot,
        }
    }
}

/// One output-projector leaf of the tree (Frontier- or StemMixed-class):
/// where per-call key ids start.
#[derive(Debug)]
struct ProjectorLeaf {
    /// Tree node this leaf occupies.
    node: usize,
    /// Network vertex the data comes from (override key).
    vertex: usize,
    /// Position in `plan.build.projector_leaves`.
    ordinal: usize,
    /// The qubit whose output bit the projector selects.
    qubit: usize,
    /// Whether the leaf is Frontier-class (no sliced edge).
    frontier: bool,
}

/// One stem leaf's slicing recipe: which axes of the (possibly overridden)
/// source tensor are fixed by which sliced-edge bit. Applying it is a
/// single [`DenseTensor::slice_into`] gather into a pooled buffer — no
/// clone, no per-edge re-slicing.
#[derive(Debug)]
struct StemLeafExec {
    /// Tree node this leaf occupies.
    node: usize,
    /// Network vertex the data comes from (override key).
    vertex: usize,
    /// `(axis position in the source tensor, bit position in the slicing
    /// set)` for every sliced edge the leaf carries.
    fixes: Vec<(usize, usize)>,
    /// Elements of the sliced leaf tensor.
    len: usize,
    /// Projector ordinal of a StemMixed-class leaf (an overridable
    /// projector that also carries a sliced edge): re-sliced per key in a
    /// batched execution, from the projector table. `None` for StemPure
    /// leaves, which are sliced once per subtask.
    ordinal: Option<usize>,
}

/// One compiled contraction: operand/output tree nodes, where each operand
/// is read from, and the reusable [`ContractionKernel`] (spec + TTGT
/// permutation maps). Shapes and axis orders are identical across all
/// executions and subtasks, so kernels are built once per plan and replayed
/// allocation-free.
#[derive(Debug)]
struct StepExec {
    left: usize,
    right: usize,
    out: usize,
    left_src: Operand,
    right_src: Operand,
    kernel: ContractionKernel,
    /// Whether the contraction is StemMixed-class (projector-dependent):
    /// replayed per key in a batched execution, while StemPure steps
    /// (`mixed == false`) run once per subtask for the whole batch.
    mixed: bool,
}

/// The compiled form of everything an execution replays: the frontier
/// program, the slicing recipes and contraction kernels of the stem, where
/// every operand is read from, the projector table and the mixed suffix's
/// dedup sort priority. Compiled once in the plan's lifetime (it only
/// depends on index sets, which output rebinding and parameter rebinding
/// preserve) and memoized on the [`SimulationPlan`] like the branch cache;
/// shared read-only by all workers. Overrides that *do* change a leaf's
/// axis order get a fresh, uncached compile instead.
#[derive(Debug)]
pub(crate) struct StemExec {
    /// Every projector-dependent leaf, in tree-node order.
    projector_leaves: Vec<ProjectorLeaf>,
    /// Projector data by ordinal and bit (`[bit 0, bit 1]`): what batched
    /// executions read instead of building per-bitstring overrides.
    projectors: Vec<[DenseTensor<Complex64>; 2]>,
    /// The frontier schedule, compiled.
    frontier_steps: Vec<StepExec>,
    /// Stem leaves' slicing recipes.
    leaves: Vec<StemLeafExec>,
    /// The stem schedule, compiled.
    steps: Vec<StepExec>,
    /// Index set of each Frontier- and Stem-class node's tensor, by
    /// tree-node id.
    node_indices: Vec<Option<IndexSet>>,
    /// Frontier nodes a later phase reads (stem seeds, or the root of an
    /// unsliced plan): their tables outlive their parent's build.
    frontier_keep: Vec<bool>,
    /// StemMixed contraction outputs in batch-sort priority (see
    /// [`mixed_sort_priority`]).
    mixed_priority: Vec<usize>,
    /// Whether the tree root is Stem-class (a sliced sweep). When false the
    /// pooled replay is bypassed — the subtask result is a cached tensor.
    root_is_stem: bool,
    /// Frontier table buffers recycled across executions. Kept apart from
    /// the stem pools, whose counters price the stem sweep only.
    spare: Mutex<Vec<Vec<Complex64>>>,
}

impl StemExec {
    /// Elements of a Frontier- or Stem-class node's tensor.
    fn node_len(&self, node: usize) -> usize {
        self.node_indices[node].as_ref().map_or(0, IndexSet::len)
    }

    /// Hand an execution's frontier buffers back for the next one.
    fn recycle(&self, tables: Vec<Vec<Complex64>>) {
        let mut spare = lock_unpoisoned(&self.spare);
        for table in tables {
            give_back(&mut spare, table);
        }
    }
}

/// Index set of an operand: a compiled node's set, or the axis order of the
/// branch-cache tensor it is read from.
fn operand_indices<'a>(
    node_indices: &'a [Option<IndexSet>],
    cache: &'a BranchCache,
    id: usize,
) -> Result<&'a IndexSet, Error> {
    if let Some(idx) = node_indices[id].as_ref() {
        return Ok(idx);
    }
    cache
        .tensor(id)
        .map(DenseTensor::indices)
        .ok_or_else(|| Error::Internal(format!("operand {id} missing while compiling")))
}

/// Compile the execution program: resolve every projector leaf, every
/// stem leaf's slicing recipe and every operand source, and build one
/// [`ContractionKernel`] per frontier and stem contraction. Pure shape work
/// — no amplitude is touched.
fn build_stem_exec(
    plan: &SimulationPlan,
    cache: &BranchCache,
    overrides: &LeafOverrides,
) -> Result<StemExec, Error> {
    let cls = &plan.classification;
    let sliced = &plan.slicing.sliced;
    let num_nodes = plan.tree.nodes().len();
    let mut node_indices: Vec<Option<IndexSet>> = vec![None; num_nodes];
    let mut projector_leaves = Vec::new();
    let mut leaves = Vec::new();

    for (node_id, node) in plan.tree.nodes().iter().enumerate() {
        let Some(vertex) = node.leaf_vertex else { continue };
        let class = cls.class(node_id);
        let src = overrides.get(&vertex).unwrap_or(&plan.build.nodes[vertex].data);
        let ordinal =
            if class.depends_on_projector() {
                let ordinal =
                    plan.build.projector_leaves.iter().position(|&(_, v)| v == vertex).ok_or_else(
                        || Error::Internal(format!("leaf {node_id} is no projector")),
                    )?;
                projector_leaves.push(ProjectorLeaf {
                    node: node_id,
                    vertex,
                    ordinal,
                    qubit: plan.build.projector_leaves[ordinal].0,
                    frontier: class == NodeClass::Frontier,
                });
                Some(ordinal)
            } else {
                None
            };
        if class == NodeClass::Frontier {
            node_indices[node_id] = Some(src.indices().clone());
        } else if class.is_stem() {
            let mut fixes = Vec::new();
            for (bit_pos, &edge) in sliced.iter().enumerate() {
                if let Some(axis) = src.indices().position(edge) {
                    fixes.push((axis, bit_pos));
                }
            }
            let kept: Vec<IndexId> = src.indices().iter().filter(|a| !sliced.contains(a)).collect();
            let indices = IndexSet::new(kept);
            leaves.push(StemLeafExec { node: node_id, vertex, fixes, len: indices.len(), ordinal });
            node_indices[node_id] = Some(indices);
        }
    }

    let mut compile = |&(l, r, out): &(usize, usize, usize)| -> Result<StepExec, Error> {
        let kernel = ContractionKernel::new(
            operand_indices(&node_indices, cache, l)?,
            operand_indices(&node_indices, cache, r)?,
        );
        node_indices[out] = Some(kernel.output().clone());
        Ok(StepExec {
            left: l,
            right: r,
            out,
            left_src: Operand::of(cls.class(l)),
            right_src: Operand::of(cls.class(r)),
            kernel,
            mixed: cls.class(out) == NodeClass::StemMixed,
        })
    };
    let frontier_steps =
        cls.frontier_schedule().iter().map(&mut compile).collect::<Result<_, _>>()?;
    let steps = cls.stem_schedule().iter().map(&mut compile).collect::<Result<_, _>>()?;

    let mut frontier_keep = vec![false; num_nodes];
    for &id in cls.stem_seeds() {
        frontier_keep[id] = cls.class(id) == NodeClass::Frontier;
    }
    let all = |bit: u8| plan.build.rebind_output(&vec![bit; plan.build.num_qubits]);
    let projectors = all(0)?.into_iter().zip(all(1)?).map(|((_, zero), (_, one))| [zero, one]);
    Ok(StemExec {
        projector_leaves,
        projectors: projectors.collect(),
        frontier_steps,
        leaves,
        steps,
        node_indices,
        frontier_keep,
        mixed_priority: mixed_sort_priority(plan),
        root_is_stem: cls.class(plan.tree.root()).is_stem(),
        spare: Mutex::new(Vec::new()),
    })
}

/// The order in which a batch is sorted by the StemMixed outputs' key ids.
/// Processing order never affects correctness (a node recomputes exactly
/// when its key differs from what its buffer holds, children before
/// parents), only how often the single-entry caches miss — so group the
/// batch around the nodes where a miss costs the most.
///
/// Dependency masks form a *laminar* family (each is the union of its
/// children's), so arrange the distinct masks as a containment forest and
/// emit them in cost-weighted post-order: within a chain the narrowest mask
/// sorts first — then a wider mask's keys are refined by the narrower one's
/// groups, and since a wide key determines every sub-key, **all** chain
/// nodes simultaneously hit their distinct-key floor. Disjoint subtrees
/// inevitably fragment each other, so the heavier subtree gets the outer
/// (unfragmented) sort position. Plan-only, so compiled once.
fn mixed_sort_priority(plan: &SimulationPlan) -> Vec<usize> {
    let cls = &plan.classification;
    let masks = cls.projector_masks();
    let cost_of = |l: usize, r: usize| -> u64 {
        let left = &plan.tree.node(l).indices;
        let right = &plan.tree.node(r).indices;
        let union = left.len() + right.iter().filter(|e| !left.contains(*e)).count();
        1u64 << union.min(60)
    };
    // Group schedule outs by identical mask, accumulating structural cost.
    let mut groups: Vec<(Vec<u64>, Vec<usize>, u64)> = Vec::new();
    for &(l, r, out) in cls.stem_mixed_schedule() {
        let words = masks.mask(out).to_vec();
        match groups.iter_mut().find(|(w, _, _)| *w == words) {
            Some((_, members, cost)) => {
                members.push(out);
                *cost += cost_of(l, r);
            }
            None => groups.push((words, vec![out], cost_of(l, r))),
        }
    }
    let subset = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(x, y)| x & !y == 0);
    let popcount = |w: &[u64]| w.iter().map(|x| x.count_ones() as u64).sum::<u64>();
    // Minimal strict superset = laminar parent (supersets form a chain).
    let parent: Vec<Option<usize>> = (0..groups.len())
        .map(|i| {
            (0..groups.len())
                .filter(|&j| j != i && subset(&groups[i].0, &groups[j].0))
                .min_by_key(|&j| popcount(&groups[j].0))
        })
        .collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
    let mut forest_roots: Vec<usize> = Vec::new();
    for (i, p) in parent.iter().enumerate() {
        match p {
            Some(p) => children[*p].push(i),
            None => forest_roots.push(i),
        }
    }
    // Subtree weights, bottom-up (children have strictly smaller masks).
    let mut weight: Vec<u64> = groups.iter().map(|(_, _, c)| *c).collect();
    let mut by_pop: Vec<usize> = (0..groups.len()).collect();
    by_pop.sort_by_key(|&i| popcount(&groups[i].0));
    for &i in &by_pop {
        if let Some(p) = parent[i] {
            weight[p] = weight[p].saturating_add(weight[i]);
        }
    }
    // Cost-weighted post-order: heavier subtrees first, masks narrower
    // than their parent emitted before it.
    for list in children.iter_mut() {
        list.sort_by_key(|&i| std::cmp::Reverse(weight[i]));
    }
    forest_roots.sort_by_key(|&i| std::cmp::Reverse(weight[i]));
    let mut priority: Vec<usize> = Vec::new();
    let mut stack: Vec<(usize, bool)> = forest_roots.iter().rev().map(|&i| (i, false)).collect();
    while let Some((i, emitted)) = stack.pop() {
        if emitted {
            priority.extend(groups[i].1.iter().copied());
        } else {
            stack.push((i, true));
            stack.extend(children[i].iter().rev().map(|&c| (c, false)));
        }
    }
    priority
}

// ---------------------------------------------------------------------------
// Per-call key ids
// ---------------------------------------------------------------------------

/// Sentinel of the key tables: "no row" / "not seen yet".
const NONE: u32 = u32::MAX;

/// Dense key ids of one execution's bitstrings at every projector-dependent
/// (Frontier- or StemMixed-class) node: two bitstrings share a node's key
/// id exactly when they agree on every output bit the node's tensor
/// depends on.
///
/// Ids are computed bottom-up with no key materialised and nothing hashed.
/// A projector leaf's id numbers its bit by first occurrence in the batch;
/// a contraction's id interns the pair of its children's ids (a Branch or
/// StemPure child has the single id 0) — children's dependency masks are
/// disjoint and their union is the parent's, so the pair determines the
/// parent's dependent bits exactly. Every id is numbered by first
/// occurrence in bitstring order. A single execution is a batch of one:
/// every id is 0.
struct KeyTable {
    batch: usize,
    /// Per tree node: its row, or [`NONE`] for nodes no output bit affects
    /// (every bitstring has key 0 there).
    row: Vec<u32>,
    /// `rows × batch` key ids, row-major.
    ids: Vec<u32>,
    /// Per row, plus one: where the row's keys start in `parts`.
    part_start: Vec<u32>,
    /// What each key id stands for, row by row: `(bit, 0)` at a projector
    /// leaf, `(left key, right key)` at a contraction.
    parts: Vec<(u32, u32)>,
}

impl KeyTable {
    /// Key ids of a batch: `bit(b, qubit)` is bitstring `b`'s output bit.
    fn build(
        exec: &StemExec,
        num_nodes: usize,
        batch: usize,
        bit: impl Fn(usize, usize) -> u8,
    ) -> Self {
        let mut table = KeyTable {
            batch,
            row: vec![NONE; num_nodes],
            ids: Vec::new(),
            part_start: vec![0],
            parts: Vec::new(),
        };
        for leaf in &exec.projector_leaves {
            let mut seen = [NONE; 2];
            let start = table.parts.len();
            for b in 0..batch {
                let bit = bit(b, leaf.qubit) & 1;
                if seen[bit as usize] == NONE {
                    seen[bit as usize] = (table.parts.len() - start) as u32;
                    table.parts.push((bit as u32, 0));
                }
                table.ids.push(seen[bit as usize]);
            }
            table.close_row(leaf.node);
        }
        let mut scratch = InternScratch::default();
        let zeros = vec![0; batch];
        for step in exec.frontier_steps.iter().chain(exec.steps.iter().filter(|s| s.mixed)) {
            scratch.intern(
                table.row_ids(step.left).unwrap_or(&zeros),
                table.distinct(step.left),
                table.row_ids(step.right).unwrap_or(&zeros),
                table.distinct(step.right),
            );
            table.ids.extend_from_slice(&scratch.ids);
            table.parts.extend_from_slice(&scratch.pairs);
            table.close_row(step.out);
        }
        table
    }

    fn close_row(&mut self, node: usize) {
        self.row[node] = (self.part_start.len() - 1) as u32;
        self.part_start.push(self.parts.len() as u32);
    }

    /// Every bitstring's key id at `node`, if any output bit reaches it.
    fn row_ids(&self, node: usize) -> Option<&[u32]> {
        match self.row[node] {
            NONE => None,
            row => Some(&self.ids[row as usize * self.batch..(row as usize + 1) * self.batch]),
        }
    }

    /// Bitstring `b`'s key id at `node`.
    fn id(&self, node: usize, b: usize) -> u32 {
        match self.row[node] {
            NONE => 0,
            row => self.ids[row as usize * self.batch + b],
        }
    }

    /// What each of the node's key ids stands for (see `parts`).
    fn parts(&self, node: usize) -> &[(u32, u32)] {
        match self.row[node] {
            NONE => &[(0, 0)],
            row => {
                let row = row as usize;
                &self.parts[self.part_start[row] as usize..self.part_start[row + 1] as usize]
            }
        }
    }

    /// Number of distinct keys the batch presents at `node`.
    fn distinct(&self, node: usize) -> usize {
        self.parts(node).len()
    }
}

/// Reusable buffers of [`InternScratch::intern`].
#[derive(Default)]
struct InternScratch {
    cursor: Vec<u32>,
    order: Vec<u32>,
    slot: Vec<u32>,
    first: Vec<u32>,
    /// Output: each bitstring's pair id.
    ids: Vec<u32>,
    /// Output: the distinct pairs, in id order.
    pairs: Vec<(u32, u32)>,
}

impl InternScratch {
    /// Number the pairs `(left[b], right[b])` by first occurrence over
    /// `b`; `n_left` / `n_right` bound the ids, which are themselves
    /// numbered by first occurrence. Hash-free and
    /// `O(batch + n_left + n_right)`: bitstrings are bucketed by left id (a
    /// stable counting sort), each bucket resolves right ids through one
    /// dense `n_right` table that is cleared after it, and every bitstring
    /// then takes the id of the first bitstring sharing its pair.
    fn intern(&mut self, left: &[u32], n_left: usize, right: &[u32], n_right: usize) {
        let InternScratch { cursor, order, slot, first, ids, pairs } = self;
        ids.clear();
        pairs.clear();
        // A side with a single id leaves the other side's numbering as is.
        if n_right == 1 || n_left == 1 {
            let (numbered, n) = if n_right == 1 { (left, n_left) } else { (right, n_right) };
            ids.extend_from_slice(numbered);
            pairs.extend((0..n as u32).map(|k| if n_right == 1 { (k, 0) } else { (0, k) }));
            return;
        }
        let batch = left.len();
        cursor.clear();
        cursor.resize(n_left + 1, 0);
        for &l in left {
            cursor[l as usize + 1] += 1;
        }
        for l in 0..n_left {
            cursor[l + 1] += cursor[l];
        }
        order.clear();
        order.resize(batch, 0);
        for (b, &l) in left.iter().enumerate() {
            let at = &mut cursor[l as usize];
            order[*at as usize] = b as u32;
            *at += 1;
        }
        // `cursor[l]` now ends bucket `l`; within a bucket `b` ascends, so
        // the first bitstring seen with a right id is the earliest overall.
        slot.clear();
        slot.resize(n_right, NONE);
        first.clear();
        first.resize(batch, 0);
        let mut begin = 0;
        for &end in &cursor[..n_left] {
            let bucket = &order[begin..end as usize];
            for &b in bucket {
                let r = right[b as usize] as usize;
                if slot[r] == NONE {
                    slot[r] = b;
                }
                first[b as usize] = slot[r];
            }
            for &b in bucket {
                slot[right[b as usize] as usize] = NONE;
            }
            begin = end as usize;
        }
        for (b, &f) in first.iter().enumerate() {
            let f = f as usize;
            if f == b {
                ids.push(pairs.len() as u32);
                pairs.push((left[b], right[b]));
            } else {
                let id = ids[f];
                ids.push(id);
            }
        }
    }
}

/// Bitstring indices in mixed-suffix processing order: lexicographically
/// sorted by the key ids of the StemMixed outputs taken in
/// [`mixed_sort_priority`] order, with submission order as the stable
/// tie-break. Reordering within a subtask is safe — every bitstring
/// accumulates into its own partial, and partials still merge subtasks in
/// ascending-assignment order per worker, exactly like a loop of singles.
/// The executor keeps a single-entry (most-recent-key) cache per mixed
/// node, so on spine-shaped suffixes (nested dependency masks, where the
/// heavy mixed contractions live) each node recomputes exactly once per
/// distinct key.
fn mixed_dedup_order(keys: &KeyTable, priority: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.batch).collect();
    order.sort_by(|&a, &b| {
        priority
            .iter()
            .map(|&out| keys.id(out, a).cmp(&keys.id(out, b)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.cmp(&b))
    });
    order
}

// ---------------------------------------------------------------------------
// The per-execution frontier
// ---------------------------------------------------------------------------

/// Where the Frontier-class leaves' data comes from.
#[derive(Clone, Copy)]
enum LeafInput<'a> {
    /// A single execution's leaf overrides (plan data where absent).
    Overrides(&'a LeafOverrides),
    /// A batch of bitstrings: each leaf key's bit selects a projector-table
    /// entry.
    Bitstrings(&'a [&'a [u8]]),
}

/// One execution's frontier: the value of every live Frontier-class node
/// for each distinct key id the batch presents, stored back to back in one
/// table per node, plus the key ids that select them. Stem operands read
/// `(node, key id)` in place; nothing is cloned per bitstring.
struct Frontier {
    keys: KeyTable,
    /// Per tree node: `distinct keys × tensor length` amplitudes. Empty for
    /// non-Frontier nodes and for tables that died once their parent was
    /// built.
    tables: Vec<Vec<Complex64>>,
    flops: u64,
    contractions: u64,
    gemm: GemmTally,
}

impl Frontier {
    /// The value bitstring `b` sees at Frontier-class `node`.
    fn value(&self, exec: &StemExec, node: usize, b: usize) -> &[Complex64] {
        let len = exec.node_len(node);
        let k = self.keys.id(node, b) as usize;
        &self.tables[node][k * len..(k + 1) * len]
    }
}

/// A buffer of `len` amplitudes from `spare` (kept sorted by capacity):
/// the smallest that fits, else the largest, grown. Best fit keeps the
/// retained buffers at the sizes a call really needs at once. Contents are
/// unspecified: every caller overwrites all of it.
fn recycled(spare: &mut Vec<Vec<Complex64>>, len: usize) -> Vec<Complex64> {
    let fit = spare.partition_point(|b| b.capacity() < len);
    let mut buf =
        if fit < spare.len() { spare.remove(fit) } else { spare.pop().unwrap_or_default() };
    buf.resize(len, Complex64::ZERO);
    buf
}

/// Put a buffer back into `spare`, keeping it sorted by capacity.
fn give_back(spare: &mut Vec<Vec<Complex64>>, buf: Vec<Complex64>) {
    if buf.capacity() > 0 {
        let at = spare.partition_point(|b| b.capacity() < buf.capacity());
        spare.insert(at, buf);
    }
}

/// Run the compiled frontier program once per distinct key: fill every
/// Frontier-class leaf's table, contract every frontier step once per key
/// id of its output (the pair its children's ids were interned from names
/// the operands), and recycle a child's table as soon as its parent is
/// built unless a later phase reads it. Each value is produced by the same
/// pairwise contraction, on the same axis orders, as a per-bitstring build,
/// so results stay bit-identical.
fn build_frontier(
    plan: &SimulationPlan,
    exec: &StemExec,
    cache: &BranchCache,
    keys: KeyTable,
    input: LeafInput<'_>,
) -> Result<Frontier, Error> {
    let mut spare = std::mem::take(&mut *lock_unpoisoned(&exec.spare));
    let mut tables: Vec<Vec<Complex64>> = vec![Vec::new(); plan.tree.nodes().len()];
    for leaf in exec.projector_leaves.iter().filter(|l| l.frontier) {
        let len = exec.node_len(leaf.node);
        let parts = keys.parts(leaf.node);
        let mut table = recycled(&mut spare, parts.len() * len);
        for (value, &(bit, _)) in table.chunks_exact_mut(len).zip(parts) {
            let data = match input {
                LeafInput::Overrides(overrides) => overrides
                    .get(&leaf.vertex)
                    .unwrap_or(&plan.build.nodes[leaf.vertex].data)
                    .data(),
                LeafInput::Bitstrings(_) => exec.projectors[leaf.ordinal][bit as usize].data(),
            };
            value.copy_from_slice(data);
        }
        tables[leaf.node] = table;
    }

    let mut flops = 0u64;
    let mut contractions = 0u64;
    let mut gemm = GemmTally::default();
    let mut left_scratch = recycled(&mut spare, 0);
    let mut right_scratch = recycled(&mut spare, 0);
    for step in &exec.frontier_steps {
        let len = exec.node_len(step.out);
        let parts = keys.parts(step.out);
        let mut table = recycled(&mut spare, parts.len() * len);
        let operand = |src: Operand, node: usize, key: u32| -> Result<&[Complex64], Error> {
            match src {
                Operand::Frontier => {
                    let len = exec.node_len(node);
                    let k = key as usize;
                    Ok(&tables[node][k * len..(k + 1) * len])
                }
                _ => cache.tensor(node).map(DenseTensor::data).ok_or_else(|| {
                    Error::Internal(format!("frontier operand {node} missing from cache"))
                }),
            }
        };
        for (k, &(left_key, right_key)) in parts.iter().enumerate() {
            let a = operand(step.left_src, step.left, left_key)?;
            let b = operand(step.right_src, step.right, right_key)?;
            if left_scratch.len() < a.len() {
                left_scratch.resize(a.len(), Complex64::ZERO);
            }
            if right_scratch.len() < b.len() {
                right_scratch.resize(b.len(), Complex64::ZERO);
            }
            step.kernel.contract_into(
                a,
                b,
                &mut left_scratch[..a.len()],
                &mut right_scratch[..b.len()],
                &mut table[k * len..(k + 1) * len],
            );
        }
        let runs = parts.len() as u64;
        flops += runs * step.kernel.flops();
        contractions += runs;
        gemm.record_kernel(&step.kernel, runs);
        tables[step.out] = table;
        for (src, child) in [(step.left_src, step.left), (step.right_src, step.right)] {
            if src == Operand::Frontier && !exec.frontier_keep[child] {
                give_back(&mut spare, std::mem::take(&mut tables[child]));
            }
        }
    }
    give_back(&mut spare, left_scratch);
    give_back(&mut spare, right_scratch);
    exec.recycle(spare);
    Ok(Frontier { keys, tables, flops, contractions, gemm })
}

/// The whole result of a slice-invariant (unsliced) plan for bitstring `b`:
/// its frontier root, or the branch-cache root when no output bit reaches
/// it.
fn slice_invariant_root(
    plan: &SimulationPlan,
    exec: &StemExec,
    frontier: &Frontier,
    b: usize,
) -> Result<DenseTensor<Complex64>, Error> {
    let root = plan.tree.root();
    match exec.node_indices[root].as_ref() {
        Some(indices) => {
            Ok(DenseTensor::from_data(indices.clone(), frontier.value(exec, root, b).to_vec()))
        }
        None => cache_of(plan)?
            .tensor(root)
            .cloned()
            .ok_or_else(|| Error::Internal("slice-invariant root missing from caches".into())),
    }
}

// ---------------------------------------------------------------------------
// Pooled stem execution: precompiled per-subtask replay
// ---------------------------------------------------------------------------

/// Per-worker state that survives the whole sweep: the worker's buffer
/// pool and its per-execution counters, the slot table and the reusable
/// fix buffer (cleared, never reallocated, between subtasks), and the root
/// index set recycled from the previous subtask's result tensor.
struct StemWorkspace {
    pool: BufferPool,
    counters: PoolCounters,
    slots: Vec<Option<Vec<Complex64>>>,
    fix_buf: Vec<(usize, u8)>,
    root_indices: Option<IndexSet>,
}

impl StemWorkspace {
    fn new(num_nodes: usize, pool: BufferPool) -> Self {
        Self {
            pool,
            counters: PoolCounters::default(),
            slots: vec![None; num_nodes],
            fix_buf: Vec::new(),
            root_indices: None,
        }
    }

    /// Gather one stem leaf for a slice assignment: one strided
    /// [`DenseTensor::slice_into`] from `src` into `buf`.
    fn gather(
        fix_buf: &mut Vec<(usize, u8)>,
        leaf: &StemLeafExec,
        src: &DenseTensor<Complex64>,
        assignment: usize,
        buf: &mut [Complex64],
    ) {
        fix_buf.clear();
        fix_buf.extend(
            leaf.fixes.iter().map(|&(axis, bit_pos)| (axis, ((assignment >> bit_pos) & 1) as u8)),
        );
        src.slice_into(fix_buf, buf);
    }

    /// Gather a stem leaf into a freshly acquired pooled buffer held in its
    /// slot.
    fn load_leaf(&mut self, leaf: &StemLeafExec, src: &DenseTensor<Complex64>, assignment: usize) {
        let mut buf = self.pool.acquire(leaf.len, &mut self.counters);
        Self::gather(&mut self.fix_buf, leaf, src, assignment, &mut buf);
        self.slots[leaf.node] = Some(buf);
    }

    /// Wrap the root buffer as the subtask's result tensor, recycling the
    /// previous subtask's root index set instead of cloning the compiled
    /// one: the steady-state loop allocates nothing at all.
    fn root_tensor(
        &mut self,
        exec: &StemExec,
        root: usize,
    ) -> Result<DenseTensor<Complex64>, Error> {
        let buf = self.slots[root]
            .take()
            .ok_or_else(|| Error::Internal("root tensor missing after stem replay".into()))?;
        let indices = match self.root_indices.take() {
            Some(indices) => indices,
            None => exec.node_indices[root].clone().ok_or_else(|| {
                Error::Internal("root index set missing from stem compile".into())
            })?,
        };
        Ok(DenseTensor::from_data(indices, buf))
    }

    /// Return every buffer still held in the slot table to the pool.
    fn release_slots(&mut self) {
        for slot in self.slots.iter_mut() {
            if let Some(buf) = slot.take() {
                self.pool.release(buf, &mut self.counters);
            }
        }
    }
}

/// Data of a slice-invariant stem operand: a branch-cache entry or the
/// frontier value bitstring `b` sees.
fn cached_operand<'a>(
    exec: &StemExec,
    cache: &'a BranchCache,
    frontier: &'a Frontier,
    src: Operand,
    id: usize,
    b: usize,
) -> Result<&'a [Complex64], Error> {
    match src {
        Operand::Branch => cache
            .tensor(id)
            .map(DenseTensor::data)
            .ok_or_else(|| Error::Internal(format!("branch operand {id} missing from cache"))),
        Operand::Frontier => Ok(frontier.value(exec, id, b)),
        Operand::Slot => Err(Error::Internal(format!("stem operand {id} missing from slots"))),
    }
}

/// Replay one stem step whose slot operands die with it (every step of a
/// single execution, and every StemPure step of a batch): operands are
/// taken out of the slot table, contracted through the precompiled kernel
/// into recycled output and scratch buffers, and released immediately —
/// the acquire/release sequence [`qtn_tensornet::lifetime`] simulates.
fn replay_consuming(
    exec: &StemExec,
    cache: &BranchCache,
    frontier: &Frontier,
    step: &StepExec,
    ws: &mut StemWorkspace,
    gemm: &mut GemmTally,
) -> Result<(), Error> {
    fault_contraction_tick();
    let StemWorkspace { pool, counters, slots, .. } = ws;
    let take = |slots: &mut [Option<Vec<Complex64>>], src: Operand, id: usize| {
        if src == Operand::Slot {
            slots[id].take()
        } else {
            None
        }
    };
    let left_owned = take(slots, step.left_src, step.left);
    let right_owned = take(slots, step.right_src, step.right);
    let left = match &left_owned {
        Some(buf) => buf.as_slice(),
        None => cached_operand(exec, cache, frontier, step.left_src, step.left, 0)?,
    };
    let right = match &right_owned {
        Some(buf) => buf.as_slice(),
        None => cached_operand(exec, cache, frontier, step.right_src, step.right, 0)?,
    };
    let mut left_scratch = pool.acquire(left.len(), counters);
    let mut right_scratch = pool.acquire(right.len(), counters);
    let mut out = pool.acquire(step.kernel.output().len(), counters);
    step.kernel.contract_into(left, right, &mut left_scratch, &mut right_scratch, &mut out);
    gemm.record_kernel(&step.kernel, 1);
    pool.release(left_scratch, counters);
    pool.release(right_scratch, counters);
    if let Some(buf) = left_owned {
        pool.release(buf, counters);
    }
    if let Some(buf) = right_owned {
        pool.release(buf, counters);
    }
    slots[step.out] = Some(out);
    Ok(())
}

/// Execute one slice assignment of a single execution on the worker's
/// buffer pool: every sliced leaf is gathered into a recycled buffer, every
/// contraction runs through its precompiled kernel into recycled
/// output/scratch buffers, and buffers return to the pool the moment their
/// statically known lifetime ends. The acquire/release sequence mirrors
/// [`qtn_tensornet::lifetime`]'s phase simulation step for step, which is
/// why the plan's predicted peak and slot counts are exact. Bit-identical
/// to [`run_subtask_stem`]. `leaf_src[i]` is the source tensor of
/// `exec.leaves[i]`.
///
/// Returns the root tensor (whose data buffer the caller must release back
/// to the pool after merging) and the replayed flop count, split as
/// `(root, total_flops, pure_flops)`.
#[allow(clippy::too_many_arguments)]
fn run_subtask_stem_pooled(
    plan: &SimulationPlan,
    exec: &StemExec,
    frontier: &Frontier,
    leaf_src: &[&DenseTensor<Complex64>],
    assignment: usize,
    ws: &mut StemWorkspace,
    gemm: &mut GemmTally,
) -> Result<(DenseTensor<Complex64>, u64, u64), Error> {
    let cache = cache_of(plan)?;
    let mut flops = 0u64;
    let mut pure_flops = 0u64;
    for (leaf, src) in exec.leaves.iter().zip(leaf_src) {
        ws.load_leaf(leaf, src, assignment);
    }
    for step in &exec.steps {
        replay_consuming(exec, cache, frontier, step, ws, gemm)?;
        flops += step.kernel.flops();
        if !step.mixed {
            pure_flops += step.kernel.flops();
        }
    }
    Ok((ws.root_tensor(exec, plan.tree.root())?, flops, pure_flops))
}

/// Chaos hook: the [`FaultPoint::WorkerPanic`] injection point, checked
/// once per contraction step of every stem replay loop so a fault plan can
/// panic a worker at exactly the Nth contraction. One relaxed atomic load
/// when no plan is installed.
#[inline]
fn fault_contraction_tick() {
    if fault::fire(FaultPoint::WorkerPanic) {
        panic!("injected fault: worker panic at contraction step");
    }
}

/// The plan's built branch cache (every replay runs strictly after
/// [`prepare_reuse`] built it).
fn cache_of(plan: &SimulationPlan) -> Result<&BranchCache, Error> {
    plan.branch_cache
        .get()
        .and_then(|r| r.as_ref().ok())
        .ok_or_else(|| Error::Internal("branch cache missing during stem replay".into()))
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of worker threads.
///
/// Threads are spawned once and block on a shared queue; submitting a job
/// costs one channel send instead of a thread spawn. Dropping the pool closes
/// the queue and joins every worker.
pub struct WorkerPool {
    sender: Option<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.handles.len()).finish()
    }
}

impl WorkerPool {
    /// Spawn a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..threads)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || loop {
                    // Take the next job while holding the lock, run it after
                    // releasing so other workers can dequeue concurrently.
                    // The receiver stays usable even if a sibling worker
                    // panicked while holding the lock (`recv` itself cannot
                    // unwind, but the uniform policy costs nothing here).
                    let job = lock_unpoisoned(&receiver).recv();
                    match job {
                        // A panicking job must not take the worker thread
                        // down with it — the pool is long-lived and shared.
                        // The panicked execution observes the failure through
                        // its dropped result channel.
                        Ok(job) => {
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                        Err(_) => break, // queue closed: pool is shutting down
                    }
                })
            })
            .collect();
        Self { sender: Some(sender), handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Enqueue a job. Jobs run in submission order as workers become free.
    pub fn submit(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("worker pool already shut down")
            .send(job)
            .expect("worker pool threads terminated");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.sender.take()); // close the queue, workers drain and exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide pool backing the plain [`execute_plan`] /
/// [`try_execute_plan`] entry points. Engines own their own pools; this one
/// exists so the free functions stop paying a thread-spawn per execution.
fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        WorkerPool::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
    })
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Execute a plan, returning the contracted tensor (a scalar amplitude for
/// closed networks, a tensor over the open indices otherwise) and statistics.
///
/// Back-compat convenience over [`try_execute_plan`]; panics on internal
/// executor errors (which indicate planner/executor bugs, not bad input).
pub fn execute_plan(
    plan: &SimulationPlan,
    config: &ExecutorConfig,
) -> (DenseTensor<Complex64>, ExecutionStats) {
    try_execute_plan(plan, config).expect("plan execution failed")
}

/// Execute a plan on the process-wide worker pool.
///
/// The internal plan clone shares the caller's plan-lifetime branch cache,
/// so repeated calls with the same plan build the cache once and reuse it
/// afterwards, exactly like the [`crate::Engine`] path.
pub fn try_execute_plan(
    plan: &SimulationPlan,
    config: &ExecutorConfig,
) -> Result<(DenseTensor<Complex64>, ExecutionStats), Error> {
    let plan = Arc::new(plan.clone());
    execute_on_pool(global_pool(), &plan, &Arc::new(LeafOverrides::new()), config)
}

/// Accounting of the cache phases of one reusing execution, plus the
/// compiled program and the frontier every worker reads.
struct ReuseState {
    /// The compiled program (memoized on the plan unless an override
    /// changed a leaf's axis order).
    exec: Arc<StemExec>,
    /// This execution's frontier values and key ids. Branch-origin inputs
    /// are *not* copied anywhere — workers read them straight from the
    /// plan's [`BranchCache`] through their `Arc<SimulationPlan>`.
    frontier: Arc<Frontier>,
    /// Full branch-cache build cost (paid once in the plan's lifetime;
    /// after a parameter rebind this is still the *cold* bill — executed
    /// plus survived — so reuse accounting prices replays consistently).
    branch_flops_total: u64,
    /// Branch flops/contractions actually executed by *this* call.
    branch_flops: u64,
    branch_contractions: u64,
    /// Rebind accounting of the branch-cache build, reported (like
    /// `branch_flops`) only by the call that ran the build.
    params_rebound: u64,
    entries_invalidated: u64,
    survived_flops: u64,
    /// Kernel-dispatch tally of the branch build executed by *this* call
    /// (zero unless this execution built the cache).
    branch_gemm: GemmTally,
}

impl ReuseState {
    /// Fold the serial phases' work into an execution's stats.
    fn account(&self, stats: &mut ExecutionStats, gemm: &mut GemmTally) {
        stats.frontier_flops = self.frontier.flops;
        stats.frontier_contractions = self.frontier.contractions;
        stats.branch_flops = self.branch_flops;
        stats.branch_contractions = self.branch_contractions;
        stats.params_rebound = self.params_rebound;
        stats.branch_entries_invalidated = self.entries_invalidated;
        stats.branch_flops_survived_rebind = self.survived_flops;
        stats.flops += self.frontier.flops + self.branch_flops;
        gemm.add(&self.branch_gemm);
        gemm.add(&self.frontier.gemm);
    }

    /// Hand the frontier buffers back to the compiled program once every
    /// worker has dropped its handle.
    fn finish(self) {
        if let Ok(frontier) = Arc::try_unwrap(self.frontier) {
            self.exec.recycle(frontier.tables);
        }
    }
}

/// The serial front end of a reusing execution: build the branch cache
/// (first execution only), fetch the compiled program, compute the key ids
/// and run the frontier. A single execution is a batch of one.
fn prepare_reuse(plan: &SimulationPlan, input: LeafInput<'_>) -> Result<ReuseState, Error> {
    // Lazily build the plan-lifetime branch cache. `OnceLock::get_or_init`
    // blocks concurrent initializers, so even racing first executions run
    // the (potentially dominant-cost) build exactly once — the thread that
    // runs the closure is the one that accounts for the branch work.
    let mut built_here = false;
    let cache = plan
        .branch_cache
        .get_or_init(|| {
            built_here = true;
            build_branch_cache(plan)
        })
        .as_ref()
        .map_err(Clone::clone)?;

    // Rebinding preserves every leaf's index set, so the compiled program
    // is plan-invariant and memoized on the plan; an override that
    // *changes* a leaf's axis order gets a fresh, uncached compile.
    let no_overrides = LeafOverrides::new();
    let overrides = match input {
        LeafInput::Overrides(overrides) => overrides,
        LeafInput::Bitstrings(_) => &no_overrides,
    };
    let shapes_preserved =
        overrides.iter().all(|(vertex, t)| t.indices() == plan.build.nodes[*vertex].data.indices());
    let exec = if shapes_preserved {
        let exec = plan
            .stem_exec
            .get_or_init(|| build_stem_exec(plan, cache, overrides).map(Arc::new))
            .as_ref()
            .map_err(Clone::clone)?;
        Arc::clone(exec)
    } else {
        Arc::new(build_stem_exec(plan, cache, overrides)?)
    };

    let num_nodes = plan.tree.nodes().len();
    let keys = match input {
        LeafInput::Overrides(_) => KeyTable::build(&exec, num_nodes, 1, |_, _| 0),
        LeafInput::Bitstrings(bits) => {
            KeyTable::build(&exec, num_nodes, bits.len(), |b, qubit| bits[b][qubit])
        }
    };
    let frontier = build_frontier(plan, &exec, cache, keys, input)?;
    Ok(ReuseState {
        exec,
        frontier: Arc::new(frontier),
        branch_flops_total: cache.cold_flops,
        branch_flops: if built_here { cache.flops } else { 0 },
        branch_contractions: if built_here { cache.contractions } else { 0 },
        params_rebound: if built_here { cache.params_rebound } else { 0 },
        entries_invalidated: if built_here { cache.entries_invalidated } else { 0 },
        survived_flops: if built_here { cache.survived_flops } else { 0 },
        branch_gemm: if built_here { cache.gemm } else { GemmTally::default() },
    })
}

/// The shape of a sweep: subtasks to run, workers to use, the sliced edges
/// (all and open) and the canonical output index set.
struct SweepShape {
    sliced: Vec<IndexId>,
    sliced_open: Vec<IndexId>,
    total_subtasks: usize,
    run_subtasks: usize,
    workers: usize,
    /// Output accumulator over the open indices (sorted for a canonical
    /// axis order; callers permute to their preferred order).
    output_indices: IndexSet,
}

impl SweepShape {
    fn of(plan: &SimulationPlan, config: &ExecutorConfig) -> Self {
        let open = plan.network.open_indices();
        let sliced = plan.slicing.sliced.clone();
        let sliced_open = sliced.iter().copied().filter(|e| open.contains(e)).collect();
        let total_subtasks = 1usize << sliced.len();
        let run_subtasks = if config.max_subtasks == 0 {
            total_subtasks
        } else {
            config.max_subtasks.min(total_subtasks)
        };
        let workers = config.workers.max(1).min(run_subtasks.max(1));
        let mut root = plan.tree.node(plan.tree.root()).indices.clone();
        root.sort_unstable();
        let output_indices = root.into_iter().collect();
        SweepShape { sliced, sliced_open, total_subtasks, run_subtasks, workers, output_indices }
    }

    /// Mean wall time of one subtask on one worker over a sweep.
    fn seconds_per_subtask(&self, sweep_seconds: f64) -> f64 {
        if self.run_subtasks > 0 {
            sweep_seconds * self.workers as f64 / self.run_subtasks as f64
        } else {
            0.0
        }
    }
}

/// Execute a plan on an explicit [`WorkerPool`], substituting `overrides`
/// for the corresponding leaf tensors (the compile-once / execute-many path:
/// the overrides retarget output projectors without re-planning).
///
/// With [`ExecutorConfig::reuse`] enabled (the default), slice-invariant
/// contractions are not replayed per subtask: branch tensors come from the
/// plan-lifetime [`BranchCache`] and override-dependent frontier tensors are
/// contracted once per call, so each subtask replays only the stem. The
/// reuse path requires every override key to be one of the plan's
/// output-projector leaves (true for everything produced by
/// [`qtn_circuit::NetworkBuild::rebind_output`]); otherwise the executor
/// silently falls back to the full replay.
///
/// Deterministic: subtasks are statically strided over `config.workers`
/// logical workers and partials are reduced in worker order, so the result
/// is bit-identical across runs regardless of thread scheduling — and
/// bit-identical between the reuse and full-replay paths.
pub fn execute_on_pool(
    pool: &WorkerPool,
    plan: &Arc<SimulationPlan>,
    overrides: &Arc<LeafOverrides>,
    config: &ExecutorConfig,
) -> Result<(DenseTensor<Complex64>, ExecutionStats), Error> {
    let start = Instant::now();
    let shape = SweepShape::of(plan, config);
    let SweepShape { run_subtasks, workers, .. } = shape;

    // The classification assumed only output-projector leaves are
    // overridable; an override targeting any other leaf would make cached
    // branch tensors stale, so such calls take the full-replay path.
    let reuse = config.reuse
        && overrides
            .keys()
            .all(|v| plan.build.projector_leaves.iter().any(|&(_, node)| node == *v));
    let state =
        if reuse { Some(prepare_reuse(plan, LeafInput::Overrides(overrides))?) } else { None };
    let pooled = config.pool && state.as_ref().is_some_and(|s| s.exec.root_is_stem);
    // The allocate-per-contraction stem replay reads frontier seeds as
    // tensors; the pooled replay reads the frontier tables in place.
    let seeds = match &state {
        Some(s) if !pooled && s.exec.root_is_stem => Some(Arc::new(materialize_seeds(plan, s))),
        _ => None,
    };

    // Per-subtask timing starts after the serial front end so
    // `seconds_per_subtask` prices a subtask of the parallel sweep, not an
    // amortized share of the one-off builds.
    let sweep_start = Instant::now();

    type WorkerOutcome = (DenseTensor<Complex64>, u64, u64, GemmTally, PoolCounters);
    let (tx, rx) = mpsc::channel::<(usize, Result<WorkerOutcome, Error>)>();
    for worker in 0..workers {
        let tx = tx.clone();
        let plan = Arc::clone(plan);
        let overrides = Arc::clone(overrides);
        let program = state.as_ref().map(|s| (Arc::clone(&s.exec), Arc::clone(&s.frontier)));
        let seeds = seeds.as_ref().map(Arc::clone);
        let sliced = shape.sliced.clone();
        let sliced_open = shape.sliced_open.clone();
        let output_indices = shape.output_indices.clone();
        pool.submit(Box::new(move || {
            // The worker's buffer pool persists on the plan across
            // executions (checked back in below, on success *and* error,
            // so a failed execution never cools the pool), so only the
            // very first execution of a plan pays any allocation at all.
            let mut ws = pooled.then(|| {
                StemWorkspace::new(plan.tree.nodes().len(), plan.stem_pools.checkout(worker))
            });
            // A panicking subtask (injected or real) must fail only this
            // execution, never the process: the unwind is caught at the
            // job boundary and surfaces as a typed `ExecutionPanic`, and
            // the workspace checkin below still runs.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut partial = DenseTensor::<Complex64>::zeros(output_indices);
                let mut flops = 0u64;
                let mut pure_flops = 0u64;
                let mut gemm = GemmTally::default();
                // Stem leaves read the plan's data, or this execution's
                // override for a projector.
                let leaf_src: Vec<&DenseTensor<Complex64>> = match &program {
                    Some((exec, _)) if pooled => exec
                        .leaves
                        .iter()
                        .map(|leaf| {
                            let own = &plan.build.nodes[leaf.vertex].data;
                            if leaf.ordinal.is_some() {
                                overrides.get(&leaf.vertex).unwrap_or(own)
                            } else {
                                own
                            }
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                // Static striding: worker w owns subtasks w, w+W, w+2W, …
                let mut assignment = worker;
                while assignment < run_subtasks {
                    match (&program, ws.as_mut(), &seeds) {
                        (Some((exec, frontier)), Some(ws), _) => {
                            let (result, subtask_flops, subtask_pure) = run_subtask_stem_pooled(
                                &plan, exec, frontier, &leaf_src, assignment, ws, &mut gemm,
                            )?;
                            flops += subtask_flops;
                            pure_flops += subtask_pure;
                            merge_subtask(&mut partial, &result, &sliced_open, &sliced, assignment);
                            // The root tensor's buffer goes back to the
                            // pool; its index set is recycled by the next
                            // subtask of this worker.
                            let (indices, buf) = result.into_parts();
                            ws.pool.release(buf, &mut ws.counters);
                            ws.root_indices = Some(indices);
                        }
                        (Some(_), None, Some(seeds)) => {
                            let (result, subtask_flops, subtask_pure) = run_subtask_stem(
                                &plan, seeds, &overrides, &sliced, assignment, &mut gemm,
                            )?;
                            flops += subtask_flops;
                            pure_flops += subtask_pure;
                            merge_subtask(&mut partial, &result, &sliced_open, &sliced, assignment);
                        }
                        // No contraction depends on the slice assignment
                        // (empty slicing set): the cached root tensor *is*
                        // the subtask result.
                        (Some((exec, frontier)), None, None) => {
                            let result = slice_invariant_root(&plan, exec, frontier, 0)?;
                            merge_subtask(&mut partial, &result, &sliced_open, &sliced, assignment);
                        }
                        (None, _, _) => {
                            let (result, subtask_flops) =
                                run_subtask(&plan, &overrides, &sliced, assignment, &mut gemm)?;
                            flops += subtask_flops;
                            merge_subtask(&mut partial, &result, &sliced_open, &sliced, assignment);
                        }
                    }
                    assignment += workers;
                }
                Ok((partial, flops, pure_flops, gemm))
            }))
            .unwrap_or_else(|payload| Err(Error::from_panic(payload)));
            // The frontier handle goes before the result does, so the
            // caller can reclaim the frontier buffers once every result is
            // in.
            drop(program);
            // Return the pool regardless of the outcome: buffers still
            // sitting in the slot table of a failed replay are drained
            // back first, so even an error leaves the free lists warm.
            let mut counters = PoolCounters::default();
            if let Some(mut ws) = ws {
                ws.release_slots();
                counters = ws.counters;
                plan.stem_pools.checkin(worker, ws.pool);
            }
            let _ = tx.send((
                worker,
                outcome.map(|(partial, flops, pure, gemm)| (partial, flops, pure, gemm, counters)),
            ));
        }));
    }
    drop(tx);

    // Collect every worker's partial, then reduce in worker order so the
    // summation order is schedule-independent.
    let mut partials: Vec<Option<WorkerOutcome>> = (0..workers).map(|_| None).collect();
    for _ in 0..workers {
        let (worker, outcome) = rx
            .recv()
            .map_err(|_| Error::ExecutionPanic("an execution job was dropped unfinished".into()))?;
        partials[worker] = Some(outcome?);
    }
    let mut partials = partials.into_iter();
    let (mut result, mut stem_flops, mut stem_pure_flops, mut gemm_tally, mut pool_counters) =
        partials
            .next()
            .flatten()
            .ok_or_else(|| Error::Internal("missing worker partial".into()))?;
    for slot in partials {
        let (partial, worker_flops, worker_pure, worker_gemm, worker_counters) =
            slot.ok_or_else(|| Error::Internal("missing worker partial".into()))?;
        result.accumulate(&partial);
        stem_flops += worker_flops;
        stem_pure_flops += worker_pure;
        gemm_tally.add(&worker_gemm);
        pool_counters.merge(&worker_counters);
    }
    let sweep_wall = sweep_start.elapsed().as_secs_f64();

    // A full replay would pay the branch + frontier contractions again in
    // every subtask (branch tensors carry no sliced index, so their flop
    // counts are identical in both modes).
    let mut stats = ExecutionStats {
        subtasks_run: run_subtasks,
        subtasks_total: shape.total_subtasks,
        flops: stem_flops,
        stem_flops,
        stem_pure_flops,
        amplitudes_in_batch: 1,
        buffers_allocated: pool_counters.allocated,
        buffers_reused: pool_counters.reused,
        peak_bytes_in_flight: pool_counters.peak_in_flight_bytes,
        predicted_peak_bytes: plan.memory_plan.stem.peak_bytes(),
        prepare_seconds: (sweep_start - start).as_secs_f64(),
        seconds_per_subtask: shape.seconds_per_subtask(sweep_wall),
        workers,
        ..ExecutionStats::default()
    };
    if let Some(state) = state {
        state.account(&mut stats, &mut gemm_tally);
        let per_subtask_extra = state.branch_flops_total + state.frontier.flops;
        stats.stem_pure_contractions =
            plan.classification.stem_pure_schedule().len() as u64 * run_subtasks as u64;
        stats.stem_mixed_flops = stem_flops - stem_pure_flops;
        stats.stem_mixed_contractions =
            plan.classification.stem_mixed_schedule().len() as u64 * run_subtasks as u64;
        stats.branch_flops_reused = per_subtask_extra
            .saturating_mul(run_subtasks as u64)
            .saturating_sub(state.frontier.flops)
            .saturating_sub(state.branch_flops);
        state.finish();
    }
    stats.apply_gemm(&gemm_tally);
    stats.simd_level = qtn_tensor::simd_level().as_str();
    stats.wall_seconds = start.elapsed().as_secs_f64();
    Ok((result, stats))
}

/// The frontier stem seeds of a single execution as tensors, by tree-node
/// id, for the allocate-per-contraction stem replay.
fn materialize_seeds(
    plan: &SimulationPlan,
    state: &ReuseState,
) -> Vec<Option<DenseTensor<Complex64>>> {
    let exec = &state.exec;
    let mut seeds = vec![None; plan.tree.nodes().len()];
    for &id in plan.classification.stem_seeds() {
        if let Some(indices) = exec.node_indices[id].as_ref() {
            let data = state.frontier.value(exec, id, 0).to_vec();
            seeds[id] = Some(DenseTensor::from_data(indices.clone(), data));
        }
    }
    seeds
}

// ---------------------------------------------------------------------------
// Batched multi-amplitude execution
// ---------------------------------------------------------------------------

/// One worker's StemMixed-suffix tally for a batched execution: what the
/// keyed cache executed and what it skipped. Executed + skipped always
/// equals `mixed schedule length × bitstrings × subtasks run` — the exact
/// mixed bill a loop of single executions pays.
#[derive(Debug, Default, Clone, Copy)]
struct MixedTally {
    flops: u64,
    contractions: u64,
    skipped_flops: u64,
    skipped_contractions: u64,
}

impl MixedTally {
    fn merge(&mut self, other: &MixedTally) {
        self.flops += other.flops;
        self.contractions += other.contractions;
        self.skipped_flops += other.skipped_flops;
        self.skipped_contractions += other.skipped_contractions;
    }
}

/// Execute the StemPure prefix of one slice assignment on the worker's
/// buffer pool: pure leaves are gathered into pooled buffers, pure
/// contractions replay through their kernels, and buffers consumed by a
/// pure contraction are released immediately. What remains in the slot
/// table afterwards is exactly the classification's StemPure keep set
/// (plus the root when the whole stem is pure) — held there, still checked
/// out of the pool, for every bitstring of the batch to read. Returns the
/// replayed (pure) flop count.
fn run_pure_prefix_pooled(
    plan: &SimulationPlan,
    exec: &StemExec,
    frontier: &Frontier,
    assignment: usize,
    ws: &mut StemWorkspace,
    gemm: &mut GemmTally,
) -> Result<u64, Error> {
    let cache = cache_of(plan)?;
    let mut flops = 0u64;
    // StemPure leaves carry a sliced edge but are never overridable, so
    // they always read the plan's own leaf data.
    for leaf in exec.leaves.iter().filter(|l| l.ordinal.is_none()) {
        ws.load_leaf(leaf, &plan.build.nodes[leaf.vertex].data, assignment);
    }
    // A StemPure contraction's operands are StemPure (owned by the slot
    // table and consumed here — a pure node consumed by a *mixed* step
    // never shows up as a pure-step operand) or Branch (borrowed from the
    // plan cache).
    for step in exec.steps.iter().filter(|s| !s.mixed) {
        replay_consuming(exec, cache, frontier, step, ws, gemm)?;
        flops += step.kernel.flops();
    }
    Ok(flops)
}

/// Execute one bitstring's StemMixed suffix of one slice assignment on the
/// worker's buffer pool, *keyed*: the caller acquired every mixed node's
/// buffer up front and `cached` records the key id each buffer currently
/// holds. A node whose key matches this bitstring's is skipped outright; a
/// changed key recomputes the buffer **in place** (the contraction kernel
/// overwrites its output, and leaves re-gather with `slice_into` from the
/// projector table), so held buffers never cycle through the pool and only
/// the per-step TTGT scratch is transient. Because a node's dependency mask
/// contains its children's masks, a matching output key guarantees both
/// operands hold exactly the values a per-bitstring replay would produce —
/// skipping is bit-exact reuse, never approximation. StemPure keeps are
/// borrowed from the slot table; frontier values and branch-cache tensors
/// are read where they live.
///
/// Returns `(executed flops, executed contractions, skipped flops)`. The
/// root's value stays in the slot table for the caller to merge.
#[allow(clippy::too_many_arguments)]
fn run_mixed_suffix_keyed_pooled(
    plan: &SimulationPlan,
    exec: &StemExec,
    frontier: &Frontier,
    cached: &mut [u32],
    bitstring: usize,
    assignment: usize,
    ws: &mut StemWorkspace,
    gemm: &mut GemmTally,
) -> Result<(u64, u64, u64), Error> {
    let cache = cache_of(plan)?;
    let keys = &frontier.keys;
    let StemWorkspace { pool, counters, slots, fix_buf, .. } = ws;
    let mut flops = 0u64;
    let mut executed = 0u64;
    let mut skipped_flops = 0u64;

    for leaf in &exec.leaves {
        let Some(ordinal) = leaf.ordinal else { continue };
        let kid = keys.id(leaf.node, bitstring);
        if cached[leaf.node] == kid {
            continue;
        }
        let bit = keys.parts(leaf.node)[kid as usize].0 as usize;
        let buf = slots[leaf.node]
            .as_mut()
            .ok_or_else(|| Error::Internal(format!("mixed leaf buffer {} not held", leaf.node)))?;
        StemWorkspace::gather(fix_buf, leaf, &exec.projectors[ordinal][bit], assignment, buf);
        cached[leaf.node] = kid;
    }

    for step in exec.steps.iter().filter(|s| s.mixed) {
        let kid = keys.id(step.out, bitstring);
        if cached[step.out] == kid {
            skipped_flops += step.kernel.flops();
            continue;
        }
        fault_contraction_tick();
        let mut out = slots[step.out]
            .take()
            .ok_or_else(|| Error::Internal(format!("mixed output buffer {} not held", step.out)))?;
        let operand = |src: Operand, id: usize| match (src, slots[id].as_deref()) {
            (Operand::Slot, Some(buf)) => Ok(buf),
            _ => cached_operand(exec, cache, frontier, src, id, bitstring),
        };
        let left = operand(step.left_src, step.left)?;
        let right = operand(step.right_src, step.right)?;
        let mut left_scratch = pool.acquire(left.len(), counters);
        let mut right_scratch = pool.acquire(right.len(), counters);
        step.kernel.contract_into(left, right, &mut left_scratch, &mut right_scratch, &mut out);
        flops += step.kernel.flops();
        executed += 1;
        gemm.record_kernel(&step.kernel, 1);
        pool.release(left_scratch, counters);
        pool.release(right_scratch, counters);
        slots[step.out] = Some(out);
        cached[step.out] = kid;
    }
    Ok((flops, executed, skipped_flops))
}

/// Execute one plan for a whole batch of output bitstrings, amortizing the
/// slice-dependent StemPure prefix across the batch.
///
/// Bitstrings are validated like [`qtn_circuit::NetworkBuild::rebind_output`]
/// does, but no per-bitstring override is built: projector leaves read the
/// compiled projector table by each bitstring's bit. With reuse enabled,
/// every slice assignment contracts its StemPure prefix **once** and
/// replays the StemMixed suffix once per distinct key, and the frontier is
/// contracted once per distinct key of each frontier node — instead of the
/// full stem plus a fresh frontier once per bitstring. Results are
/// **bit-identical** to a loop of single [`execute_on_pool`] calls with the
/// same configuration — per bitstring the same pairwise contractions
/// produce every tensor and the partials reduce in the same worker order;
/// batching only changes how often shared work is computed. The batched
/// sweep always runs pooled (bit-identical to the unpooled replay). With
/// reuse disabled the call falls back to exactly that loop of single
/// executions.
///
/// The returned tensors are index-aligned with `bitstrings`; the
/// [`ExecutionStats`] cover the whole batch, with
/// [`ExecutionStats::stem_pure_flops`],
/// [`ExecutionStats::stem_pure_flops_reused`] and
/// [`ExecutionStats::amplitudes_in_batch`] quantifying the amortization.
pub fn execute_amplitudes_on_pool(
    pool: &WorkerPool,
    plan: &Arc<SimulationPlan>,
    bitstrings: &[&[u8]],
    config: &ExecutorConfig,
) -> Result<(Vec<DenseTensor<Complex64>>, ExecutionStats), Error> {
    let start = Instant::now();
    let batch = bitstrings.len();
    if batch == 0 {
        return Ok((
            Vec::new(),
            ExecutionStats {
                subtasks_total: plan.num_subtasks(),
                workers: 0,
                ..ExecutionStats::default()
            },
        ));
    }
    for bits in bitstrings {
        plan.build.validate_bits(bits)?;
    }
    // A batch of one has nothing to amortize: delegate to the single-execute
    // path and skip the batch bookkeeping (key tables, dedup order, partial
    // accumulators) entirely. Identical results by construction — the
    // batched path is defined as bit-identical to this very loop of singles.
    if batch == 1 {
        let overrides: LeafOverrides =
            plan.build.rebind_output(bitstrings[0])?.into_iter().collect();
        let rebind_seconds = start.elapsed().as_secs_f64();
        let (result, mut stats) = execute_on_pool(pool, plan, &Arc::new(overrides), config)?;
        stats.prepare_seconds += rebind_seconds;
        stats.wall_seconds = start.elapsed().as_secs_f64();
        return Ok((vec![result], stats));
    }
    if !config.reuse {
        return execute_amplitudes_sequentially(pool, plan, bitstrings, config, start);
    }

    let shape = SweepShape::of(plan, config);
    let SweepShape { run_subtasks, workers, .. } = shape;
    let state = prepare_reuse(plan, LeafInput::Bitstrings(bitstrings))?;
    let root_is_mixed = plan.classification.root_class() == NodeClass::StemMixed;
    let order = Arc::new(if root_is_mixed {
        mixed_dedup_order(&state.frontier.keys, &state.exec.mixed_priority)
    } else {
        (0..batch).collect()
    });
    let mixed_sched_len = plan.classification.stem_mixed_schedule().len() as u64;
    let sweep_start = Instant::now();

    type BatchOutcome =
        (Vec<DenseTensor<Complex64>>, u64, u64, MixedTally, GemmTally, PoolCounters);
    let (tx, rx) = mpsc::channel::<(usize, Result<BatchOutcome, Error>)>();
    for worker in 0..workers {
        let tx = tx.clone();
        let plan = Arc::clone(plan);
        let exec = Arc::clone(&state.exec);
        let frontier = Arc::clone(&state.frontier);
        let order = Arc::clone(&order);
        let sliced = shape.sliced.clone();
        let sliced_open = shape.sliced_open.clone();
        let output_indices = shape.output_indices.clone();
        pool.submit(Box::new(move || {
            let num_nodes = plan.tree.nodes().len();
            let mut ws = exec
                .root_is_stem
                .then(|| StemWorkspace::new(num_nodes, plan.stem_pools.checkout(worker)));
            // Same panic containment as the single-amplitude sweep: a
            // panicking batched subtask becomes a typed `ExecutionPanic`
            // and the held buffers still drain back to the pool below.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut partials: Vec<DenseTensor<Complex64>> =
                    (0..batch).map(|_| DenseTensor::zeros(output_indices.clone())).collect();
                let mut flops = 0u64;
                let mut pure_flops = 0u64;
                let mut mixed = MixedTally::default();
                let mut gemm = GemmTally::default();
                // Most-recent-key cache of the keyed suffix, invalidated
                // per subtask (the first bitstring of every subtask replays
                // the full suffix, touching the peak).
                let mut cached_keys: Vec<u32> = vec![NONE; num_nodes];
                let root = plan.tree.root();
                // Static striding over slice assignments, exactly like the
                // single path: worker w owns subtasks w, w+W, w+2W, …
                let mut assignment = worker;
                while assignment < run_subtasks {
                    let Some(ws) = ws.as_mut() else {
                        // No stem at all (unsliced plan): every bitstring's
                        // result is its slice-invariant root.
                        for (b, partial) in partials.iter_mut().enumerate() {
                            let result = slice_invariant_root(&plan, &exec, &frontier, b)?;
                            merge_subtask(partial, &result, &sliced_open, &sliced, assignment);
                        }
                        assignment += workers;
                        continue;
                    };
                    // Pure prefix once, then the keyed mixed suffix over
                    // the batch in dedup order.
                    let p =
                        run_pure_prefix_pooled(&plan, &exec, &frontier, assignment, ws, &mut gemm)?;
                    flops += p;
                    pure_flops += p;
                    if root_is_mixed {
                        // Acquire every mixed node's buffer up front (leaves,
                        // then step outputs — the lifetime simulation's exact
                        // sequence) and hold them across the whole bitstring
                        // loop: keyed recomputes overwrite in place, so the
                        // live set is constant and the first bitstring
                        // deterministically hits the predicted peak whatever
                        // keys the batch contains.
                        for leaf in exec.leaves.iter().filter(|l| l.ordinal.is_some()) {
                            ws.slots[leaf.node] = Some(ws.pool.acquire(leaf.len, &mut ws.counters));
                        }
                        for step in exec.steps.iter().filter(|s| s.mixed) {
                            let len = step.kernel.output().len();
                            ws.slots[step.out] = Some(ws.pool.acquire(len, &mut ws.counters));
                        }
                        cached_keys.fill(NONE);
                        for &b in order.iter() {
                            let (m, executed, skipped) = run_mixed_suffix_keyed_pooled(
                                &plan,
                                &exec,
                                &frontier,
                                &mut cached_keys,
                                b,
                                assignment,
                                ws,
                                &mut gemm,
                            )?;
                            flops += m;
                            mixed.flops += m;
                            mixed.contractions += executed;
                            mixed.skipped_flops += skipped;
                            mixed.skipped_contractions += mixed_sched_len - executed;
                            // Merge this bitstring's root: borrow the held
                            // buffer as a tensor, then put it back for the
                            // next bitstring to reuse.
                            let result = ws.root_tensor(&exec, root)?;
                            merge_subtask(
                                &mut partials[b],
                                &result,
                                &sliced_open,
                                &sliced,
                                assignment,
                            );
                            let (indices, buf) = result.into_parts();
                            ws.slots[root] = Some(buf);
                            ws.root_indices = Some(indices);
                        }
                    } else {
                        // The whole stem is StemPure: the prefix root *is*
                        // every bitstring's subtask result.
                        let result = ws.root_tensor(&exec, root)?;
                        for partial in partials.iter_mut() {
                            merge_subtask(partial, &result, &sliced_open, &sliced, assignment);
                        }
                        let (indices, buf) = result.into_parts();
                        ws.pool.release(buf, &mut ws.counters);
                        ws.root_indices = Some(indices);
                    }
                    // The batch is done with this subtask: the held StemPure
                    // keep set goes back to the pool.
                    ws.release_slots();
                    assignment += workers;
                }
                Ok((partials, flops, pure_flops, mixed, gemm))
            }))
            .unwrap_or_else(|payload| Err(Error::from_panic(payload)));
            drop(frontier);
            // Return the pool regardless of the outcome, draining any
            // buffers a failed replay left behind.
            let mut counters = PoolCounters::default();
            if let Some(mut ws) = ws {
                ws.release_slots();
                counters = ws.counters;
                plan.stem_pools.checkin(worker, ws.pool);
            }
            let _ = tx.send((
                worker,
                outcome.map(|(partials, flops, pure, mixed, gemm)| {
                    (partials, flops, pure, mixed, gemm, counters)
                }),
            ));
        }));
    }
    drop(tx);

    // Collect every worker's per-bitstring partials, then reduce each
    // bitstring in worker order — the same schedule-independent summation
    // order a loop of single executions uses.
    let mut worker_partials: Vec<Option<BatchOutcome>> = (0..workers).map(|_| None).collect();
    for _ in 0..workers {
        let (worker, outcome) = rx
            .recv()
            .map_err(|_| Error::ExecutionPanic("an execution job was dropped unfinished".into()))?;
        worker_partials[worker] = Some(outcome?);
    }
    let mut worker_partials = worker_partials.into_iter();
    let (
        mut results,
        mut stem_flops,
        mut stem_pure_flops,
        mut mixed_tally,
        mut gemm_tally,
        mut pool_counters,
    ) = worker_partials
        .next()
        .flatten()
        .ok_or_else(|| Error::Internal("missing worker partial".into()))?;
    for slot in worker_partials {
        let (partials, worker_flops, worker_pure, worker_mixed, worker_gemm, worker_counters) =
            slot.ok_or_else(|| Error::Internal("missing worker partial".into()))?;
        for (acc, partial) in results.iter_mut().zip(partials.iter()) {
            acc.accumulate(partial);
        }
        stem_flops += worker_flops;
        stem_pure_flops += worker_pure;
        mixed_tally.merge(&worker_mixed);
        gemm_tally.add(&worker_gemm);
        pool_counters.merge(&worker_counters);
    }
    let sweep_wall = sweep_start.elapsed().as_secs_f64();

    // A loop of single executions would replay the StemPure prefix once per
    // subtask *per bitstring*; the batch ran it once per subtask.
    let stem_pure_flops_reused = stem_pure_flops.saturating_mul(batch as u64 - 1);
    // And a full (reuse-off) replay would additionally pay branch work plus
    // one *undeduplicated* frontier build in every subtask of every
    // bitstring — the structural per-bitstring frontier bill, not the
    // (smaller) deduped total this call actually executed, so the batched
    // path and the sequential fallback account the same baseline.
    let frontier_flops_full: u64 = plan
        .classification
        .frontier_schedule()
        .iter()
        .map(|&(l, r, _)| {
            let left = &plan.tree.node(l).indices;
            let right = &plan.tree.node(r).indices;
            let union = left.len() + right.iter().filter(|e| !left.contains(*e)).count();
            8u64 << union
        })
        .sum();
    let stem_mixed_distinct_keys = plan
        .classification
        .stem_mixed_schedule()
        .iter()
        .map(|&(_, _, out)| state.frontier.keys.distinct(out) as u64)
        .sum();
    let mut stats = ExecutionStats {
        subtasks_run: run_subtasks,
        subtasks_total: shape.total_subtasks,
        flops: stem_flops,
        stem_flops,
        stem_pure_flops,
        stem_pure_flops_reused,
        stem_pure_contractions: plan.classification.stem_pure_schedule().len() as u64
            * run_subtasks as u64,
        stem_mixed_flops: mixed_tally.flops,
        stem_mixed_flops_reused: mixed_tally.skipped_flops,
        stem_mixed_contractions: mixed_tally.contractions,
        stem_mixed_contractions_deduped: mixed_tally.skipped_contractions,
        stem_mixed_distinct_keys,
        amplitudes_in_batch: batch as u64,
        buffers_allocated: pool_counters.allocated,
        buffers_reused: pool_counters.reused,
        peak_bytes_in_flight: pool_counters.peak_in_flight_bytes,
        predicted_peak_bytes: plan.memory_plan.batched_stem.peak_bytes(),
        prepare_seconds: (sweep_start - start).as_secs_f64(),
        seconds_per_subtask: shape.seconds_per_subtask(sweep_wall),
        workers,
        ..ExecutionStats::default()
    };
    state.account(&mut stats, &mut gemm_tally);
    stats.branch_flops_reused = state
        .branch_flops_total
        .saturating_add(frontier_flops_full)
        .saturating_mul(batch as u64)
        .saturating_mul(run_subtasks as u64)
        .saturating_sub(state.frontier.flops)
        .saturating_sub(state.branch_flops);
    state.finish();
    stats.apply_gemm(&gemm_tally);
    stats.simd_level = qtn_tensor::simd_level().as_str();
    stats.wall_seconds = start.elapsed().as_secs_f64();
    Ok((results, stats))
}

/// The batched fallback: a plain loop of single executions, one per
/// bitstring — what [`execute_amplitudes_on_pool`] degrades to when reuse
/// is off, and the baseline the batched path is bit-identical to. `start`
/// is the batched call's entry, so the clocks cover the rebinds too.
fn execute_amplitudes_sequentially(
    pool: &WorkerPool,
    plan: &Arc<SimulationPlan>,
    bitstrings: &[&[u8]],
    config: &ExecutorConfig,
    start: Instant,
) -> Result<(Vec<DenseTensor<Complex64>>, ExecutionStats), Error> {
    let mut results = Vec::with_capacity(bitstrings.len());
    let mut stats = ExecutionStats::default();
    for bits in bitstrings {
        let rebind_start = Instant::now();
        let overrides: LeafOverrides = plan.build.rebind_output(bits)?.into_iter().collect();
        let rebind_seconds = rebind_start.elapsed().as_secs_f64();
        let (result, s) = execute_on_pool(pool, plan, &Arc::new(overrides), config)?;
        results.push(result);
        stats.prepare_seconds += rebind_seconds + s.prepare_seconds;
        stats.subtasks_run += s.subtasks_run;
        stats.subtasks_total = s.subtasks_total;
        stats.flops += s.flops;
        stats.stem_flops += s.stem_flops;
        stats.stem_pure_flops += s.stem_pure_flops;
        stats.stem_pure_contractions += s.stem_pure_contractions;
        stats.stem_mixed_flops += s.stem_mixed_flops;
        stats.stem_mixed_flops_reused += s.stem_mixed_flops_reused;
        stats.stem_mixed_contractions += s.stem_mixed_contractions;
        stats.stem_mixed_contractions_deduped += s.stem_mixed_contractions_deduped;
        stats.stem_mixed_distinct_keys += s.stem_mixed_distinct_keys;
        stats.frontier_flops += s.frontier_flops;
        stats.branch_flops += s.branch_flops;
        stats.branch_flops_reused += s.branch_flops_reused;
        stats.branch_contractions += s.branch_contractions;
        stats.frontier_contractions += s.frontier_contractions;
        stats.params_rebound += s.params_rebound;
        stats.branch_entries_invalidated += s.branch_entries_invalidated;
        stats.branch_flops_survived_rebind += s.branch_flops_survived_rebind;
        stats.gemm_micro += s.gemm_micro;
        stats.gemm_gemv += s.gemm_gemv;
        stats.gemm_narrow += s.gemm_narrow;
        stats.gemm_blocked += s.gemm_blocked;
        stats.gemm_simd += s.gemm_simd;
        stats.simd_level = s.simd_level;
        stats.buffers_allocated += s.buffers_allocated;
        stats.buffers_reused += s.buffers_reused;
        stats.peak_bytes_in_flight = stats.peak_bytes_in_flight.max(s.peak_bytes_in_flight);
        stats.predicted_peak_bytes = s.predicted_peak_bytes;
        stats.workers = stats.workers.max(s.workers);
    }
    stats.amplitudes_in_batch = bitstrings.len() as u64;
    stats.wall_seconds = start.elapsed().as_secs_f64();
    stats.seconds_per_subtask = if stats.subtasks_run > 0 {
        stats.wall_seconds * stats.workers as f64 / stats.subtasks_run as f64
    } else {
        0.0
    };
    Ok((results, stats))
}

/// Materialise one leaf for one slice assignment: substitute the execution's
/// override for the leaf data, then slice away every sliced edge the tensor
/// carries. Shared by the full-replay and stem-only paths so their leaf
/// semantics can never diverge.
fn sliced_leaf_tensor(
    plan: &SimulationPlan,
    overrides: &LeafOverrides,
    sliced: &[IndexId],
    assignment: usize,
    vertex: usize,
) -> DenseTensor<Complex64> {
    let mut t = overrides.get(&vertex).unwrap_or(&plan.build.nodes[vertex].data).clone();
    for (pos, &e) in sliced.iter().enumerate() {
        if t.indices().contains(e) {
            let bit = ((assignment >> pos) & 1) as u8;
            t = t.slice_index(e, bit);
        }
    }
    t
}

/// Execute one slice assignment: slice the leaves, replay the tree schedule.
/// Returns the subtask's root tensor and its flop count.
fn run_subtask(
    plan: &SimulationPlan,
    overrides: &LeafOverrides,
    sliced: &[IndexId],
    assignment: usize,
    gemm: &mut GemmTally,
) -> Result<(DenseTensor<Complex64>, u64), Error> {
    // Slots indexed by tree-node id.
    let num_nodes = plan.tree.nodes().len();
    let mut slots: Vec<Option<DenseTensor<Complex64>>> = vec![None; num_nodes];
    let mut flops = 0u64;

    // Leaves: apply output-rebinding overrides, slice away any sliced edges.
    for (node_id, node) in plan.tree.nodes().iter().enumerate() {
        if let Some(vertex) = node.leaf_vertex {
            slots[node_id] = Some(sliced_leaf_tensor(plan, overrides, sliced, assignment, vertex));
        }
    }

    // Replay the schedule.
    for (l, r, out) in plan.tree.schedule() {
        let a =
            slots[l].take().ok_or_else(|| Error::Internal(format!("left operand {l} missing")))?;
        let b =
            slots[r].take().ok_or_else(|| Error::Internal(format!("right operand {r} missing")))?;
        let spec = ContractionSpec::new(a.indices(), b.indices());
        flops += spec.flops();
        gemm.record_spec(&spec);
        slots[out] = Some(contract_pair(&a, &b));
    }
    slots[plan.tree.root()]
        .take()
        .ok_or_else(|| Error::Internal("root tensor missing".into()))
        .map(|root| (root, flops))
}

/// Fetch a stem-replay operand: a stem intermediate owned by `slots`
/// (consumed), a frontier tensor borrowed from `seeds`, or a branch tensor
/// borrowed from the plan-lifetime `cache`.
fn stem_operand<'a>(
    slots: &mut [Option<DenseTensor<Complex64>>],
    seeds: &'a [Option<DenseTensor<Complex64>>],
    cache: &'a BranchCache,
    id: usize,
) -> Result<Cow<'a, DenseTensor<Complex64>>, Error> {
    if let Some(t) = slots[id].take() {
        return Ok(Cow::Owned(t));
    }
    seeds[id]
        .as_ref()
        .or_else(|| cache.tensor(id))
        .map(Cow::Borrowed)
        .ok_or_else(|| Error::Internal(format!("operand {id} missing from slots and caches")))
}

/// Execute one slice assignment replaying **only the stem**, allocating
/// per contraction: Stem-class leaves are overridden and sliced to the
/// assignment's values, Stem-class contractions are replayed in schedule
/// order, and every slice-invariant operand is read from the execution's
/// frontier `seeds` or the plan-lifetime branch cache. Returns the
/// subtask's root tensor and the flop count of the replayed contractions,
/// split as `(root, total_flops, pure_flops)`.
fn run_subtask_stem(
    plan: &SimulationPlan,
    seeds: &[Option<DenseTensor<Complex64>>],
    overrides: &LeafOverrides,
    sliced: &[IndexId],
    assignment: usize,
    gemm: &mut GemmTally,
) -> Result<(DenseTensor<Complex64>, u64, u64), Error> {
    let cls = &plan.classification;
    let root = plan.tree.root();
    // `prepare_reuse` built the cache before any worker started.
    let cache = cache_of(plan)?;
    let num_nodes = plan.tree.nodes().len();
    let mut slots: Vec<Option<DenseTensor<Complex64>>> = vec![None; num_nodes];
    let mut flops = 0u64;
    let mut pure_flops = 0u64;

    // Stem leaves: apply output-rebinding overrides, slice away the sliced
    // edges (every leaf carrying a sliced edge is stem-class by definition).
    for (node_id, node) in plan.tree.nodes().iter().enumerate() {
        if !cls.class(node_id).is_stem() {
            continue;
        }
        if let Some(vertex) = node.leaf_vertex {
            slots[node_id] = Some(sliced_leaf_tensor(plan, overrides, sliced, assignment, vertex));
        }
    }

    // Replay the stem schedule, seeding slice-invariant operands from the
    // frontier seeds or the plan-lifetime branch cache.
    for &(l, r, out) in cls.stem_schedule() {
        fault_contraction_tick();
        let a = stem_operand(&mut slots, seeds, cache, l)?;
        let b = stem_operand(&mut slots, seeds, cache, r)?;
        let spec = ContractionSpec::new(a.indices(), b.indices());
        flops += spec.flops();
        gemm.record_spec(&spec);
        if cls.class(out) == NodeClass::StemPure {
            pure_flops += spec.flops();
        }
        slots[out] = Some(contract_pair(&a, &b));
    }
    slots[root]
        .take()
        .ok_or_else(|| Error::Internal("root tensor missing".into()))
        .map(|t| (t, flops, pure_flops))
}

/// Merge a subtask result into the partial accumulator: stack over sliced
/// open indices (write into the slot the assignment selects), sum otherwise.
fn merge_subtask(
    partial: &mut DenseTensor<Complex64>,
    result: &DenseTensor<Complex64>,
    sliced_open: &[IndexId],
    sliced: &[IndexId],
    assignment: usize,
) {
    if sliced_open.is_empty() {
        // Pure summation; axis order of result may differ from partial.
        if result.rank() == 0 && partial.rank() == 0 {
            let v = partial.scalar_value() + result.scalar_value();
            partial.data_mut()[0] = v;
        } else {
            let aligned = qtn_tensor::permute::permute_to_order(result, partial.indices());
            partial.accumulate(&aligned);
        }
        return;
    }
    // Stack: expand the result with the sliced open indices fixed to the
    // assignment's bits, then accumulate (the summed contribution of the
    // closed sliced edges still adds across subtasks sharing the same open
    // bits).
    let mut expanded = result.clone();
    for &e in sliced_open {
        let pos = sliced.iter().position(|&x| x == e).unwrap();
        let bit = ((assignment >> pos) & 1) as u8;
        let mut axes: Vec<IndexId> = vec![e];
        axes.extend(expanded.indices().iter());
        let mut bigger = DenseTensor::<Complex64>::zeros(qtn_tensor::IndexSet::new(axes));
        expanded.stack_into(&mut bigger, e, bit);
        expanded = bigger;
    }
    let aligned = qtn_tensor::permute::permute_to_order(&expanded, partial.indices());
    partial.accumulate(&aligned);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_simulation, PlannerConfig};
    use qtn_circuit::{OutputSpec, RqcConfig};
    use qtn_statevector::StateVector;

    fn check_amplitude_against_statevector(
        rows: usize,
        cols: usize,
        cycles: usize,
        seed: u64,
        target_rank: usize,
        workers: usize,
    ) {
        let circuit = RqcConfig::small(rows, cols, cycles, seed).build();
        let n = circuit.num_qubits();
        let bits: Vec<u8> = (0..n).map(|q| ((seed as usize + q) % 2) as u8).collect();
        let plan = plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(bits.clone()),
            &PlannerConfig { target_rank, ..Default::default() },
        );
        let (result, stats) =
            execute_plan(&plan, &ExecutorConfig { workers, max_subtasks: 0, ..Default::default() });
        let sv = StateVector::simulate(&circuit);
        let expected = sv.amplitude(&bits);
        let got = result.scalar_value();
        assert!(
            (got - expected).abs() < 1e-8,
            "amplitude mismatch: {got:?} vs {expected:?} ({} subtasks)",
            stats.subtasks_total
        );
        assert_eq!(stats.subtasks_run, stats.subtasks_total);
        assert!(stats.flops > 0);
    }

    #[test]
    fn unsliced_execution_matches_statevector() {
        check_amplitude_against_statevector(2, 3, 6, 1, 30, 2);
    }

    #[test]
    fn sliced_execution_matches_statevector() {
        // Tight target forces several sliced edges -> many subtasks.
        check_amplitude_against_statevector(3, 3, 8, 2, 8, 4);
    }

    #[test]
    fn heavily_sliced_execution_matches_statevector() {
        check_amplitude_against_statevector(3, 3, 8, 3, 6, 4);
    }

    #[test]
    fn single_worker_and_many_workers_agree() {
        let circuit = RqcConfig::small(3, 3, 8, 4).build();
        let n = circuit.num_qubits();
        let plan = plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 8, ..Default::default() },
        );
        let (a, _) = execute_plan(
            &plan,
            &ExecutorConfig { workers: 1, max_subtasks: 0, ..Default::default() },
        );
        let (b, _) = execute_plan(
            &plan,
            &ExecutorConfig { workers: 8, max_subtasks: 0, ..Default::default() },
        );
        assert!((a.scalar_value() - b.scalar_value()).abs() < 1e-10);
    }

    #[test]
    fn repeated_pooled_executions_are_bit_identical() {
        let circuit = RqcConfig::small(3, 3, 8, 9).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        ));
        let pool = WorkerPool::new(4);
        let config = ExecutorConfig { workers: 4, max_subtasks: 0, ..Default::default() };
        let overrides = Arc::new(LeafOverrides::new());
        let (a, _) = execute_on_pool(&pool, &plan, &overrides, &config).unwrap();
        for _ in 0..5 {
            let (b, _) = execute_on_pool(&pool, &plan, &overrides, &config).unwrap();
            assert_eq!(a.data(), b.data(), "pooled execution must be deterministic");
        }
    }

    #[test]
    fn overrides_retarget_the_output_projectors() {
        let circuit = RqcConfig::small(2, 3, 6, 12).build();
        let n = circuit.num_qubits();
        let template = vec![0u8; n];
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(template),
            &PlannerConfig { target_rank: 8, ..Default::default() },
        ));
        let pool = WorkerPool::new(2);
        let config = ExecutorConfig { workers: 2, max_subtasks: 0, ..Default::default() };
        let sv = StateVector::simulate(&circuit);
        let patterns: Vec<Vec<u8>> = vec![
            vec![1; n],
            (0..n).map(|q| (q % 2) as u8).collect(),
            (0..n).map(|q| ((q + 1) % 2) as u8).collect(),
        ];
        for bits in patterns {
            let overrides: LeafOverrides =
                plan.build.rebind_output(&bits).unwrap().into_iter().collect();
            let (result, _) = execute_on_pool(&pool, &plan, &Arc::new(overrides), &config).unwrap();
            let expected = sv.amplitude(&bits);
            assert!(
                (result.scalar_value() - expected).abs() < 1e-8,
                "rebound amplitude mismatch for {bits:?}"
            );
        }
    }

    #[test]
    fn worker_pool_survives_panicking_jobs() {
        let pool = WorkerPool::new(2);
        for _ in 0..4 {
            pool.submit(Box::new(|| panic!("job blew up")));
        }
        // Every worker has met a panic; the pool must still serve jobs.
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(move || {
            let _ = tx.send(42);
        }));
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(42));
        // And a pooled execution after the panics still succeeds.
        let circuit = RqcConfig::small(2, 2, 4, 8).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 20, ..Default::default() },
        ));
        let config = ExecutorConfig { workers: 2, max_subtasks: 0, ..Default::default() };
        let result = execute_on_pool(&pool, &plan, &Arc::new(LeafOverrides::new()), &config);
        assert!(result.is_ok());
    }

    #[test]
    fn worker_pool_runs_submitted_jobs() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let (tx, rx) = mpsc::channel();
        for i in 0..10usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                let _ = tx.send(i * i);
            }));
        }
        drop(tx);
        let mut results: Vec<usize> = rx.iter().collect();
        results.sort_unstable();
        assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn open_output_matches_statevector_marginal() {
        // Open two qubits: the result tensor must equal the state-vector
        // amplitudes with the other qubits fixed to 0.
        let circuit = RqcConfig::small(2, 3, 6, 5).build();
        let n = circuit.num_qubits();
        let open = vec![0usize, 1usize];
        let plan = plan_simulation(
            &circuit,
            &OutputSpec::Open { fixed: vec![0; n], open: open.clone() },
            &PlannerConfig { target_rank: 7, ..Default::default() },
        );
        let (result, _) = execute_plan(&plan, &ExecutorConfig::default());
        assert_eq!(result.rank(), 2);
        let sv = StateVector::simulate(&circuit);
        // Map open qubits to their network indices to find the axis order.
        let order: qtn_tensor::IndexSet =
            plan.build.open_indices.iter().map(|&(_, id)| id).collect();
        let result = qtn_tensor::permute::permute_to_order(&result, &order);
        for b0 in 0..2u8 {
            for b1 in 0..2u8 {
                let mut bits = vec![0u8; n];
                bits[open[0]] = b0;
                bits[open[1]] = b1;
                let expected = sv.amplitude(&bits);
                let got = result.get(&[b0, b1]);
                assert!(
                    (got - expected).abs() < 1e-8,
                    "open amplitude mismatch at {b0}{b1}: {got:?} vs {expected:?}"
                );
            }
        }
    }

    #[test]
    fn reuse_and_full_replay_are_bit_identical() {
        let circuit = RqcConfig::small(3, 3, 8, 2).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        ));
        assert!(plan.slicing.len() >= 2, "plan must be sliced for this test");
        let pool = WorkerPool::new(4);
        let reuse =
            ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, ..Default::default() };
        let replay =
            ExecutorConfig { workers: 4, max_subtasks: 0, reuse: false, ..Default::default() };
        for k in 0..4usize {
            let bits: Vec<u8> = (0..n).map(|q| ((k >> (q % 2)) & 1) as u8).collect();
            let overrides: Arc<LeafOverrides> =
                Arc::new(plan.build.rebind_output(&bits).unwrap().into_iter().collect());
            let (a, sa) = execute_on_pool(&pool, &plan, &overrides, &reuse).unwrap();
            let (b, sb) = execute_on_pool(&pool, &plan, &overrides, &replay).unwrap();
            assert_eq!(a.data(), b.data(), "stem-only sweep must be bit-identical for {bits:?}");
            assert!(
                sa.flops < sb.flops,
                "reuse must execute fewer flops ({} vs {})",
                sa.flops,
                sb.flops
            );
            assert_eq!(sb.stem_flops, sb.flops, "full replay attributes all work to the stem");
            assert_eq!(sb.branch_flops_reused, 0);
        }
    }

    #[test]
    fn reuse_counters_track_phase_lifetimes() {
        let circuit = RqcConfig::small(3, 3, 8, 3).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        ));
        assert!(plan.slicing.len() >= 2);
        assert!(!plan.branch_cache_built());
        let (branch, frontier, stem_pure, stem_mixed) = plan.classification.contraction_counts();
        assert!(stem_pure + stem_mixed > 0);
        let pool = WorkerPool::new(2);
        let config =
            ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, ..Default::default() };
        let overrides = Arc::new(LeafOverrides::new());

        // First execution builds the branch cache exactly once…
        let (_, s1) = execute_on_pool(&pool, &plan, &overrides, &config).unwrap();
        assert_eq!(s1.branch_contractions, branch as u64);
        assert_eq!(s1.frontier_contractions, frontier as u64);
        assert_eq!(s1.flops, s1.stem_flops + s1.frontier_flops + s1.branch_flops);
        assert!(plan.branch_cache_built());

        // …later executions only pay the frontier and the stem.
        let (_, s2) = execute_on_pool(&pool, &plan, &overrides, &config).unwrap();
        assert_eq!(s2.branch_contractions, 0);
        assert_eq!(s2.branch_flops, 0);
        assert_eq!(s2.frontier_contractions, frontier as u64);
        assert_eq!(s2.stem_flops, s1.stem_flops, "per-subtask work is assignment-independent");
        if s1.branch_flops + s1.frontier_flops > 0 && s1.subtasks_run > 1 {
            assert!(s2.branch_flops_reused > 0, "a sliced sweep must reuse branch work");
        }
    }

    #[test]
    fn foreign_overrides_fall_back_to_full_replay() {
        let circuit = RqcConfig::small(3, 3, 8, 2).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 8, ..Default::default() },
        ));
        let pool = WorkerPool::new(2);
        let config =
            ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, ..Default::default() };
        // Overriding a non-projector leaf (vertex 0 is an init tensor) with
        // its own data must bypass the caches — the classification cannot
        // vouch for it — and still produce the unmodified result.
        let mut overrides = LeafOverrides::new();
        overrides.insert(0, plan.build.nodes[0].data.clone());
        let (a, stats) = execute_on_pool(&pool, &plan, &Arc::new(overrides), &config).unwrap();
        assert_eq!(stats.frontier_contractions, 0, "reuse must be bypassed");
        assert_eq!(stats.branch_contractions, 0);
        assert!(!plan.branch_cache_built());
        let (b, _) =
            execute_on_pool(&pool, &plan, &Arc::new(LeafOverrides::new()), &config).unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn unsliced_plan_reuses_the_frontier_root() {
        // A loose target means no slicing: the whole contraction is
        // slice-invariant, the single subtask just reads the cached root.
        let circuit = RqcConfig::small(2, 3, 6, 7).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 40, ..Default::default() },
        ));
        assert!(plan.slicing.is_empty());
        let pool = WorkerPool::new(1);
        let config =
            ExecutorConfig { workers: 1, max_subtasks: 0, reuse: true, ..Default::default() };
        let (result, stats) =
            execute_on_pool(&pool, &plan, &Arc::new(LeafOverrides::new()), &config).unwrap();
        assert_eq!(stats.stem_flops, 0, "nothing depends on a slice assignment");
        assert!(stats.flops > 0);
        let sv = StateVector::simulate(&circuit);
        let expected = sv.amplitude(&vec![0; n]);
        assert!((result.scalar_value() - expected).abs() < 1e-8);
    }

    #[test]
    fn pooled_and_unpooled_sweeps_are_bit_identical() {
        let circuit = RqcConfig::small(3, 3, 8, 5).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        ));
        assert!(plan.slicing.len() >= 2, "plan must be sliced for this test");
        let pool = WorkerPool::new(4);
        let pooled = ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool: true };
        let unpooled = ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool: false };
        for k in 0..4usize {
            let bits: Vec<u8> = (0..n).map(|q| ((k >> (q % 2)) & 1) as u8).collect();
            let overrides: Arc<LeafOverrides> =
                Arc::new(plan.build.rebind_output(&bits).unwrap().into_iter().collect());
            let (a, sa) = execute_on_pool(&pool, &plan, &overrides, &pooled).unwrap();
            let (b, sb) = execute_on_pool(&pool, &plan, &overrides, &unpooled).unwrap();
            assert_eq!(a.data(), b.data(), "pooling must be bit-identical for {bits:?}");
            // The first call additionally builds the plan-lifetime branch
            // cache; the per-subtask and per-execution work must agree.
            assert_eq!(sa.stem_flops, sb.stem_flops, "pooling must not change the stem work");
            assert_eq!(sa.frontier_flops, sb.frontier_flops);
            assert_eq!(sb.buffers_allocated, 0, "unpooled runs must not touch the pool");
            assert_eq!(sb.peak_bytes_in_flight, 0);
        }
    }

    #[test]
    fn pool_counters_prove_zero_alloc_steady_state() {
        let circuit = RqcConfig::small(3, 3, 8, 2).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        ));
        assert!(plan.num_subtasks() >= 4);
        let pool = WorkerPool::new(2);
        let config = ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, pool: true };
        let overrides = Arc::new(LeafOverrides::new());
        assert_eq!(plan.pooled_buffers_retained(), 0);

        // Cold pools: each worker allocates exactly the slot count the
        // greedy interval assignment predicted — once, on its first
        // subtask, regardless of how many subtasks it sweeps.
        let (_, s1) = execute_on_pool(&pool, &plan, &overrides, &config).unwrap();
        let slots = plan.memory_plan.stem.num_slots() as u64;
        assert!(slots > 0);
        assert_eq!(s1.buffers_allocated, s1.workers as u64 * slots);
        assert!(s1.buffers_reused > 0, "later subtasks must recycle the first subtask's buffers");
        assert_eq!(s1.peak_bytes_in_flight, s1.predicted_peak_bytes);
        assert_eq!(s1.predicted_peak_bytes, plan.memory_plan.stem.peak_bytes());
        assert!(plan.pooled_buffers_retained() > 0, "pools persist on the plan");

        // Warm pools: the steady state allocates nothing at all.
        let (_, s2) = execute_on_pool(&pool, &plan, &overrides, &config).unwrap();
        assert_eq!(s2.buffers_allocated, 0, "second execution must be allocation-free");
        assert!(s2.buffers_reused >= s1.buffers_reused);
        assert_eq!(s2.peak_bytes_in_flight, s2.predicted_peak_bytes);
    }

    #[test]
    fn unsliced_plan_bypasses_the_buffer_pool() {
        let circuit = RqcConfig::small(2, 3, 6, 7).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 40, ..Default::default() },
        ));
        assert!(plan.slicing.is_empty());
        let pool = WorkerPool::new(1);
        let config = ExecutorConfig { workers: 1, max_subtasks: 0, reuse: true, pool: true };
        let (_, stats) =
            execute_on_pool(&pool, &plan, &Arc::new(LeafOverrides::new()), &config).unwrap();
        // Nothing is slice-dependent: no pooled replay, no pool traffic,
        // and the stem-phase prediction is zero accordingly.
        assert_eq!(stats.buffers_allocated, 0);
        assert_eq!(stats.peak_bytes_in_flight, 0);
        assert_eq!(stats.predicted_peak_bytes, 0);
        assert_eq!(plan.pooled_buffers_retained(), 0);
    }

    fn rebind_one(plan: &SimulationPlan, bits: &[u8]) -> Arc<LeafOverrides> {
        Arc::new(plan.build.rebind_output(bits).unwrap().into_iter().collect())
    }

    #[test]
    fn batched_execution_is_bit_identical_to_a_loop_of_singles() {
        let circuit = RqcConfig::small(3, 3, 8, 2).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        ));
        assert!(plan.slicing.len() >= 2, "plan must be sliced for this test");
        let pool = WorkerPool::new(4);
        let patterns: Vec<Vec<u8>> =
            (0..6usize).map(|k| (0..n).map(|q| ((k >> (q % 3)) & 1) as u8).collect()).collect();
        let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
        for pooled in [true, false] {
            let config = ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool: pooled };
            let (results, stats) =
                execute_amplitudes_on_pool(&pool, &plan, &batch, &config).unwrap();
            assert_eq!(results.len(), patterns.len());
            assert_eq!(stats.amplitudes_in_batch, patterns.len() as u64);
            for (bits, batched) in patterns.iter().zip(results.iter()) {
                let (single, _) =
                    execute_on_pool(&pool, &plan, &rebind_one(&plan, bits), &config).unwrap();
                assert_eq!(
                    batched.data(),
                    single.data(),
                    "batched execution must be bit-identical to a single execute (pooled={pooled})"
                );
            }
        }
    }

    #[test]
    fn batched_pure_prefix_runs_once_per_subtask_regardless_of_batch_size() {
        let circuit = RqcConfig::small(3, 3, 8, 5).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        ));
        assert!(plan.slicing.len() >= 2);
        let (_, _, pure, _) = plan.classification.contraction_counts();
        assert!(pure > 0, "the stem must have a pure prefix for amortization to exist");
        let pool = WorkerPool::new(2);
        let config = ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, pool: true };
        let mut pure_flops_seen = None;
        for b in [1usize, 4, 16] {
            let patterns: Vec<Vec<u8>> =
                (0..b).map(|k| (0..n).map(|q| ((k >> (q % 4)) & 1) as u8).collect()).collect();
            let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
            let (_, stats) = execute_amplitudes_on_pool(&pool, &plan, &batch, &config).unwrap();
            assert_eq!(
                stats.stem_pure_contractions,
                (pure * plan.num_subtasks()) as u64,
                "pure contractions must not scale with the batch size (B={b})"
            );
            let pure_flops = stats.stem_pure_flops;
            assert!(pure_flops > 0);
            if let Some(seen) = pure_flops_seen {
                assert_eq!(pure_flops, seen, "pure work is batch-size invariant");
            }
            pure_flops_seen = Some(pure_flops);
            assert_eq!(stats.stem_pure_flops_reused, pure_flops * (b as u64 - 1));
            assert_eq!(stats.amplitudes_in_batch, b as u64);
        }
    }

    #[test]
    fn batched_pooled_peak_matches_the_batched_prediction() {
        let circuit = RqcConfig::small(3, 3, 8, 2).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        ));
        assert!(plan.slicing.len() >= 2);
        let pool = WorkerPool::new(2);
        let config = ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, pool: true };
        let patterns: Vec<Vec<u8>> =
            (0..8usize).map(|k| (0..n).map(|q| ((k >> (q % 3)) & 1) as u8).collect()).collect();
        let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
        let (_, stats) = execute_amplitudes_on_pool(&pool, &plan, &batch, &config).unwrap();
        assert_eq!(stats.predicted_peak_bytes, plan.memory_plan.batched_stem.peak_bytes());
        assert_eq!(
            stats.peak_bytes_in_flight, stats.predicted_peak_bytes,
            "the batched lifetime simulation must be exact"
        );
        // A second batch on the warm plan pools allocates nothing.
        let (_, warm) = execute_amplitudes_on_pool(&pool, &plan, &batch, &config).unwrap();
        assert_eq!(warm.buffers_allocated, 0, "warm batched sweep must be allocation-free");
        assert_eq!(warm.peak_bytes_in_flight, warm.predicted_peak_bytes);
    }

    #[test]
    fn batched_execution_without_reuse_falls_back_to_the_loop() {
        let circuit = RqcConfig::small(3, 3, 8, 4).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 8, ..Default::default() },
        ));
        let pool = WorkerPool::new(2);
        let reuse = ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, pool: true };
        let replay = ExecutorConfig { workers: 2, max_subtasks: 0, reuse: false, pool: true };
        let patterns: Vec<Vec<u8>> =
            (0..3usize).map(|k| (0..n).map(|q| ((k >> (q % 2)) & 1) as u8).collect()).collect();
        let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
        let (a, sa) = execute_amplitudes_on_pool(&pool, &plan, &batch, &reuse).unwrap();
        let (b, sb) = execute_amplitudes_on_pool(&pool, &plan, &batch, &replay).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.data(), y.data(), "fallback must be bit-identical to the batched path");
        }
        assert_eq!(sb.stem_pure_flops, 0, "the full replay does not classify contractions");
        assert_eq!(sb.amplitudes_in_batch, patterns.len() as u64);
        assert!(sa.flops < sb.flops, "batching must save work over the reuse-off loop");
    }

    #[test]
    fn batched_execution_of_an_unsliced_plan_reads_cached_roots() {
        let circuit = RqcConfig::small(2, 3, 6, 7).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 40, ..Default::default() },
        ));
        assert!(plan.slicing.is_empty());
        let pool = WorkerPool::new(1);
        let config = ExecutorConfig { workers: 1, max_subtasks: 0, reuse: true, pool: true };
        let patterns: Vec<Vec<u8>> = vec![vec![0; n], vec![1; n]];
        let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
        let (results, stats) = execute_amplitudes_on_pool(&pool, &plan, &batch, &config).unwrap();
        assert_eq!(stats.stem_flops, 0);
        assert_eq!(stats.stem_pure_contractions, 0);
        let sv = StateVector::simulate(&circuit);
        for (bits, result) in patterns.iter().zip(results.iter()) {
            assert!((result.scalar_value() - sv.amplitude(bits)).abs() < 1e-8);
        }
    }

    #[test]
    fn empty_batch_is_a_cheap_no_op() {
        let circuit = RqcConfig::small(2, 2, 4, 1).build();
        let n = circuit.num_qubits();
        let plan = Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 20, ..Default::default() },
        ));
        let pool = WorkerPool::new(1);
        let (results, stats) =
            execute_amplitudes_on_pool(&pool, &plan, &[], &ExecutorConfig::default()).unwrap();
        assert!(results.is_empty());
        assert_eq!(stats.amplitudes_in_batch, 0);
        assert_eq!(stats.flops, 0);
    }

    #[test]
    fn max_subtasks_limits_work() {
        let circuit = RqcConfig::small(3, 3, 8, 6).build();
        let n = circuit.num_qubits();
        let plan = plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 5, ..Default::default() },
        );
        assert!(plan.num_subtasks() > 2);
        let (_, stats) = execute_plan(
            &plan,
            &ExecutorConfig { workers: 2, max_subtasks: 2, ..Default::default() },
        );
        assert_eq!(stats.subtasks_run, 2);
        assert!(stats.subtasks_total > 2);
        assert!(stats.seconds_per_subtask >= 0.0);
    }

    /// Sum of the per-class dispatch counters: every executed contraction
    /// lands in exactly one bucket.
    fn gemm_total(stats: &ExecutionStats) -> u64 {
        stats.gemm_micro + stats.gemm_gemv + stats.gemm_narrow + stats.gemm_blocked
    }

    #[test]
    fn gemm_dispatch_counters_cover_every_contraction() {
        let circuit = RqcConfig::small(3, 3, 8, 2).build();
        let n = circuit.num_qubits();
        let make_plan = || {
            plan_simulation(
                &circuit,
                &OutputSpec::Amplitude(vec![0; n]),
                &PlannerConfig { target_rank: 8, ..Default::default() },
            )
        };

        // Reuse path: branch (built once) + frontier + stem-per-subtask.
        let plan = make_plan();
        let (_, stats) = execute_plan(&plan, &ExecutorConfig { workers: 2, ..Default::default() });
        let stem = plan.classification.stem_schedule().len() as u64 * stats.subtasks_run as u64;
        assert_eq!(
            gemm_total(&stats),
            stats.branch_contractions + stats.frontier_contractions + stem,
        );
        assert!(stats.gemm_simd <= gemm_total(&stats));
        assert!(matches!(stats.simd_level, "scalar" | "neon" | "avx2-fma"));
        assert_eq!(stats.simd_level, qtn_tensor::simd_level().as_str());
        // At the scalar level no contraction may count as SIMD; at a SIMD
        // level the dominant blocked/micro/narrow dispatches must.
        if qtn_tensor::simd_level() == qtn_tensor::SimdLevel::Scalar {
            assert_eq!(stats.gemm_simd, 0);
        }

        // Full replay: every tree contraction, every subtask — same buckets.
        let plan = make_plan();
        let (_, full) =
            execute_plan(&plan, &ExecutorConfig { workers: 2, reuse: false, ..Default::default() });
        assert_eq!(gemm_total(&full), plan.tree.schedule().len() as u64 * full.subtasks_run as u64,);

        // The tally derives from frozen kernel plans, so it is deterministic
        // across repeated executions (later runs just drop the branch part).
        let plan = make_plan();
        let config = ExecutorConfig { workers: 2, ..Default::default() };
        let (_, first) = execute_plan(&plan, &config);
        let (_, second) = execute_plan(&plan, &config);
        assert_eq!(
            gemm_total(&second) + first.branch_contractions,
            gemm_total(&first),
            "second execution re-dispatches everything but the cached branch"
        );
    }

    #[test]
    fn gemm_shape_histogram_matches_full_replay_dispatch() {
        let circuit = RqcConfig::small(3, 3, 8, 3).build();
        let n = circuit.num_qubits();
        let plan = plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 8, ..Default::default() },
        );
        let hist = plan.gemm_shape_histogram();
        assert!(!hist.is_empty());
        // Total weighted count = tree contractions with stem steps repeated
        // per subtask — exactly what a full reusing execution dispatches.
        let total: u64 = hist.iter().map(|&(_, c)| c).sum();
        let stem = plan.classification.stem_schedule().len() as u64;
        let non_stem = plan.tree.schedule().len() as u64 - stem;
        assert_eq!(total, non_stem + stem * plan.num_subtasks() as u64);
        // Sorted by descending total flops.
        let flops: Vec<u64> =
            hist.iter().map(|&((m, n, k), c)| qtn_tensor::gemm::gemm_flops(m, n, k) * c).collect();
        assert!(flops.windows(2).all(|w| w[0] >= w[1]));
        // All bond dimensions are 2: every shape is a power of two.
        for &((m, n, k), _) in &hist {
            assert!(m.is_power_of_two() && n.is_power_of_two() && k.is_power_of_two());
        }
    }

    #[test]
    fn pair_interning_numbers_keys_by_first_occurrence() {
        // Pairs (1,0) (0,0) (1,0) (0,1) (2,0) (0,0): ids follow the first
        // bitstring that presents each pair, whatever the bucket order.
        let left = [1u32, 0, 1, 0, 2, 0];
        let right = [0u32, 0, 0, 1, 0, 0];
        let mut scratch = InternScratch::default();
        scratch.intern(&left, 3, &right, 2);
        assert_eq!(scratch.ids, [0, 1, 0, 2, 3, 1]);
        assert_eq!(scratch.pairs, [(1, 0), (0, 0), (0, 1), (2, 0)]);
        // A side with a single id keeps the other side's numbering.
        scratch.intern(&[0, 0, 0], 1, &[0, 1, 0], 2);
        assert_eq!(scratch.ids, [0, 1, 0]);
        assert_eq!(scratch.pairs, [(0, 0), (0, 1)]);
        // The scratch is reusable: a batch of one interns to id 0.
        scratch.intern(&[0], 1, &[0], 1);
        assert_eq!(scratch.ids, [0]);
        assert_eq!(scratch.pairs, [(0, 0)]);
    }

    /// The branch cache and compiled program of a plan, built directly.
    fn compiled(plan: &SimulationPlan) -> (BranchCache, StemExec) {
        let cache = build_branch_cache(plan).unwrap();
        let exec = build_stem_exec(plan, &cache, &LeafOverrides::new()).unwrap();
        (cache, exec)
    }

    #[test]
    fn key_ids_equal_first_occurrence_numbering_of_masked_bits() {
        // Interning child pairs must reproduce, at every Frontier and
        // StemMixed node, exactly the ids a first-occurrence numbering of
        // the node's masked output bits gives — at any cone width, since
        // no key is ever packed into a word.
        let circuit = RqcConfig::small(3, 3, 8, 13).build();
        let n = circuit.num_qubits();
        let plan = plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        );
        let (_, exec) = compiled(&plan);
        let cls = &plan.classification;
        let masks = cls.projector_masks();
        let mut rng_state = 0x2545_f491_4f6c_dd1du64;
        let mut next_bit = || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state & 1) as u8
        };
        let bits: Vec<Vec<u8>> = (0..40).map(|_| (0..n).map(|_| next_bit()).collect()).collect();
        let keys = KeyTable::build(&exec, plan.tree.nodes().len(), bits.len(), |b, q| bits[b][q]);
        let mut keyed = 0;
        for node in 0..plan.tree.nodes().len() {
            if !cls.class(node).depends_on_projector() {
                assert_eq!(keys.distinct(node), 1, "node {node} depends on no output bit");
                continue;
            }
            keyed += 1;
            let mut seen: Vec<Vec<u8>> = Vec::new();
            for (b, bitstring) in bits.iter().enumerate() {
                let key: Vec<u8> = masks
                    .ordinals(node)
                    .map(|o| bitstring[plan.build.projector_leaves[o].0])
                    .collect();
                let id = seen.iter().position(|k| *k == key).unwrap_or_else(|| {
                    seen.push(key);
                    seen.len() - 1
                });
                assert_eq!(keys.id(node, b) as usize, id, "node {node}, bitstring {b}");
            }
            assert_eq!(keys.distinct(node), seen.len());
        }
        assert!(keyed > 0);
    }

    #[test]
    fn mixed_dedup_orders_the_batch_by_dependent_keys() {
        // RQC plan with a StemMixed root: the key tables must cover every
        // mixed node, intern at most `batch` ids per node, and sort the
        // batch so equal full-dependency keys are adjacent.
        let circuit = RqcConfig::small(3, 3, 8, 13).build();
        let n = circuit.num_qubits();
        let plan = plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        );
        assert!(!plan.classification.stem_mixed_schedule().is_empty());
        let bits: Vec<Vec<u8>> =
            (0..16).map(|k| (0..n).map(|q| ((k >> (q % 4)) & 1) as u8).collect()).collect();
        let (_, exec) = compiled(&plan);
        let keys = KeyTable::build(&exec, plan.tree.nodes().len(), 16, |b, q| bits[b][q]);
        let order = mixed_dedup_order(&keys, &exec.mixed_priority);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "order is a permutation of the batch");
        for &(_, _, out) in plan.classification.stem_mixed_schedule() {
            let distinct = keys.distinct(out);
            assert!((1..=16).contains(&distinct));
            // Every id is in range, and the root's equal keys are adjacent
            // in processing order.
            assert!((0..16).all(|b| (keys.id(out, b) as usize) < distinct));
        }
        let root = plan.tree.root();
        let runs = order.windows(2).filter(|w| keys.id(root, w[0]) != keys.id(root, w[1])).count();
        assert_eq!(runs + 1, keys.distinct(root), "equal root keys form one run each");
    }
}
