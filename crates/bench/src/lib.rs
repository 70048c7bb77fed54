//! Shared helpers for the benchmark harness.
//!
//! Every figure and table of the paper's evaluation section has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md's per-experiment index) and,
//! where the artifact is a timing, a Criterion bench under `benches/`. The
//! helpers here build the workloads those targets share: Sycamore-style
//! tensor networks, contraction trees, and stems.

#![warn(missing_docs)]

use qtn_circuit::{circuit_to_network, Circuit, OutputSpec, RqcConfig};
use qtn_tensor::simd_level;
use qtn_tensornet::{
    extract_stem, random_greedy_paths, simplify_network, ContractionTree, Stem, TensorNetwork,
};
use qtnsim_core::json::JsonObject;

/// A planned workload: the network, the chosen contraction tree and its stem.
pub struct PlannedNetwork {
    /// The circuit the network came from.
    pub circuit: Circuit,
    /// The full tensor network (structure only).
    pub network: TensorNetwork,
    /// The contraction tree selected by the path search.
    pub tree: ContractionTree,
    /// The stem of that tree.
    pub stem: Stem,
}

/// Build and plan a Sycamore-style network with `cycles` cycles on the full
/// 53-qubit layout. Planning is structural only, so this is fast even for
/// m = 20.
pub fn plan_sycamore(cycles: usize, seed: u64, path_candidates: usize) -> PlannedNetwork {
    let circuit = RqcConfig::sycamore(cycles, seed).build();
    plan_circuit(circuit, seed, path_candidates)
}

/// Build and plan a random circuit on a small `rows x cols` grid (executable
/// on a laptop end to end).
pub fn plan_grid(rows: usize, cols: usize, cycles: usize, seed: u64) -> PlannedNetwork {
    let circuit = RqcConfig::small(rows, cols, cycles, seed).build();
    plan_circuit(circuit, seed, 4)
}

fn plan_circuit(circuit: Circuit, seed: u64, path_candidates: usize) -> PlannedNetwork {
    let n = circuit.num_qubits();
    let build = circuit_to_network(&circuit, &OutputSpec::Amplitude(vec![0; n]));
    let network = TensorNetwork::from_build(&build);
    let mut work = network.clone();
    let mut pairs = simplify_network(&mut work);
    let candidates = random_greedy_paths(&work, path_candidates.max(1), seed);
    let (_, best) = candidates.into_iter().next().expect("no contraction path found");
    pairs.extend(best);
    let tree = ContractionTree::from_pairs(&network, &pairs);
    let stem = extract_stem(&tree);
    PlannedNetwork { circuit, network, tree, stem }
}

/// Machine metadata for a `BENCH_*.json` record, as a JSON object: CPU
/// model (from `/proc/cpuinfo` on Linux, else `"unknown"`), logical cores,
/// architecture, OS and the effective SIMD level. Wall times mean little
/// without it.
pub fn machine_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut o = JsonObject::new();
    o.field_str("cpu", &cpu)
        .field_usize("logical_cores", cores)
        .field_str("arch", std::env::consts::ARCH)
        .field_str("os", std::env::consts::OS)
        .field_str("simd_level", simd_level().as_str());
    o.finish()
}

/// The spread of repeated wall-clock samples: median and quartiles, by
/// nearest rank. The one timing summary the `BENCH_*.json` writers share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median sample, in seconds.
    pub median: f64,
    /// First quartile, in seconds.
    pub q1: f64,
    /// Third quartile, in seconds.
    pub q3: f64,
}

impl Timing {
    /// Summarize samples given in seconds. Panics on an empty sample set.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no timing samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        Timing { median: rank(0.5), q1: rank(0.25), q3: rank(0.75) }
    }

    /// The summary as a JSON object: `{"median": …, "q1": …, "q3": …}`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_f64("median", self.median).field_f64("q1", self.q1).field_f64("q3", self.q3);
        o.finish()
    }
}

/// Parse a `NAME=value` style argument from the command line, with a default.
pub fn arg_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::args()
        .filter_map(|a| a.strip_prefix(&format!("{name}=")).map(str::to_string))
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_grid_produces_consistent_structures() {
        let p = plan_grid(3, 3, 8, 1);
        assert_eq!(p.circuit.num_qubits(), 9);
        assert_eq!(p.tree.node(p.tree.root()).rank(), 0);
        assert!(!p.stem.is_empty());
        assert!(p.network.num_active() > 0);
    }

    #[test]
    fn plan_sycamore_is_structurally_sound() {
        let p = plan_sycamore(10, 3, 2);
        assert_eq!(p.circuit.num_qubits(), 53);
        assert!(p.tree.total_log_cost() > 15.0);
        assert!(p.stem.max_rank() >= 10);
    }

    #[test]
    fn timing_reports_median_and_quartiles() {
        let t = Timing::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(t, Timing { median: 3.0, q1: 2.0, q3: 4.0 });
        // Even counts take the upper median, like the helpers it replaced.
        assert_eq!(Timing::of(&[4.0, 1.0, 3.0, 2.0]).median, 3.0);
        assert_eq!(Timing::of(&[7.0]), Timing { median: 7.0, q1: 7.0, q3: 7.0 });
        assert!(Timing::of(&[1.0, 2.0]).to_json().contains("\"median\": 2"));
    }

    #[test]
    fn arg_parsing_defaults() {
        assert_eq!(arg_or("nonexistent_param", 42usize), 42);
    }
}
