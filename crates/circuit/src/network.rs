//! Circuit → tensor network conversion.
//!
//! In the TNC algorithm "qubits and quantum gates are represented as tensors,
//! and the whole quantum circuit is treated as a tensor network". This module
//! performs that translation: every initial |0⟩ state contributes a rank-1
//! tensor, every single-qubit gate a rank-2 tensor, every two-qubit gate a
//! rank-4 tensor, and the requested output (a closed amplitude or a set of
//! open qubits for batched/correlated amplitudes) contributes rank-1
//! projection tensors or leaves wire indices open.

use crate::circuit::Circuit;
use crate::gate::Gate;
use qtn_tensor::{c64, Complex64, DenseTensor, IndexId, IndexSet};

/// One tensor of the generated network.
#[derive(Debug, Clone)]
pub struct TensorNode {
    /// Axes of the tensor (tensor-network edge identifiers).
    pub indices: IndexSet,
    /// Amplitudes.
    pub data: DenseTensor<Complex64>,
    /// Human-readable origin, useful when debugging contraction plans.
    pub label: String,
}

/// What the network should compute.
#[derive(Debug, Clone)]
pub enum OutputSpec {
    /// A single closed amplitude ⟨b|C|0…0⟩ for the given bitstring
    /// (`bits[q]` is qubit `q`'s measured value). The contracted network is
    /// a scalar.
    Amplitude(Vec<u8>),
    /// A partially open network: qubits listed in `open` keep their final
    /// wire index free (producing a tensor over those qubits — the
    /// "correlated samples" workload of the paper), the rest are projected
    /// onto the bits in `fixed` (`fixed[q]` ignored for open qubits).
    Open {
        /// Projection bits for the non-open qubits.
        fixed: Vec<u8>,
        /// Qubits whose output index stays open.
        open: Vec<usize>,
    },
}

/// One rebindable gate parameter discovered at network-build time.
///
/// Rotation gates (`Rz`/`Rx`/`Ry`, one angle) and `FSim` (two angles)
/// contribute one slot per angle. Slots are stable for the lifetime of the
/// build: rebinding a parameter changes the slot's `value` and regenerates
/// the backing leaf tensor, but never the slot table, the network structure
/// or any index — which is what makes plan reuse across parameter values
/// sound (the same property `projector_leaves` gives output bitstrings).
#[derive(Debug, Clone)]
pub struct ParamSlot {
    name: String,
    op_index: usize,
    param_index: usize,
    leaf: usize,
    value: f64,
}

impl ParamSlot {
    /// Canonical slot name, e.g. `g3:rz[1].theta` or `g7:fsim[0,2].phi`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Index of the originating gate in `Circuit::ops()` order.
    pub fn op_index(&self) -> usize {
        self.op_index
    }

    /// Which of the gate's parameters this slot binds (see
    /// [`Gate::param_names`]).
    pub fn param_index(&self) -> usize {
        self.param_index
    }

    /// Ordinal of the backing leaf in [`NetworkBuild::param_leaf_vertices`].
    /// Both `FSim` angles of one gate share a leaf ordinal.
    pub fn leaf(&self) -> usize {
        self.leaf
    }

    /// Current bound value of the parameter.
    pub fn value(&self) -> f64 {
        self.value
    }
}

/// A gate-tensor leaf regenerated from `gate.matrix()` on parameter rebinds.
#[derive(Debug, Clone)]
struct ParamLeaf {
    /// Node index of the gate tensor in `NetworkBuild::nodes`.
    node: usize,
    /// The gate at its currently bound parameter values.
    gate: Gate,
}

/// Canonical parameter-slot name: `g{op}:{kind}[{qubits}].{param}`. Shared
/// with the qsim parser so text-format circuits surface the same names as
/// [`circuit_to_network`].
pub(crate) fn param_slot_name(
    op_index: usize,
    gate: &Gate,
    qubits: &[usize],
    param_index: usize,
) -> String {
    let kind = match gate {
        Gate::Rz(_) => "rz",
        Gate::Rx(_) => "rx",
        Gate::Ry(_) => "ry",
        Gate::FSim { .. } => "fsim",
        g => unreachable!("gate {g:?} has no parameters"),
    };
    let qubits: Vec<String> = qubits.iter().map(usize::to_string).collect();
    format!("g{op_index}:{kind}[{}].{}", qubits.join(","), gate.param_names()[param_index])
}

/// The result of converting a circuit.
#[derive(Debug, Clone)]
pub struct NetworkBuild {
    /// All tensors of the network.
    pub nodes: Vec<TensorNode>,
    /// Open output indices, one per open qubit, as `(qubit, index)` pairs.
    pub open_indices: Vec<(usize, IndexId)>,
    /// Total number of edge identifiers allocated.
    pub num_indices: u32,
    /// Number of qubits of the source circuit.
    pub num_qubits: usize,
    /// Output-projector leaf tensors, as `(qubit, node index)` pairs. These
    /// are the only tensors whose *data* depends on the requested output
    /// bitstring; everything else (and the network structure itself) is
    /// bitstring-independent, which is what makes plan reuse sound.
    pub projector_leaves: Vec<(usize, usize)>,
    /// Rebindable gate parameters in `Circuit::ops()` order (see
    /// [`NetworkBuild::param_slots`]).
    param_slots: Vec<ParamSlot>,
    /// Gate-tensor leaves backing the slots, in slot-ordinal order.
    param_leaves: Vec<ParamLeaf>,
}

/// Why an output rebind was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebindError {
    /// The bitstring length does not match the circuit's qubit count.
    BitstringLength {
        /// Qubits in the circuit.
        expected: usize,
        /// Length of the bitstring that was supplied.
        got: usize,
    },
    /// A bit value other than 0 or 1 was supplied.
    InvalidBit {
        /// The offending qubit.
        qubit: usize,
        /// The offending value.
        value: u8,
    },
    /// A parameter-slot index outside this build's slot table.
    UnknownParamSlot {
        /// The slot index that was supplied.
        slot: usize,
        /// Number of slots the build has.
        slots: usize,
    },
    /// A non-finite (NaN or infinite) parameter value was supplied. The
    /// offending value itself is not carried so the error stays `Eq`.
    NonFiniteParam {
        /// The slot the value was destined for.
        slot: usize,
    },
}

impl std::fmt::Display for RebindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebindError::BitstringLength { expected, got } => {
                write!(f, "bitstring length {got} does not match {expected} qubits")
            }
            RebindError::InvalidBit { qubit, value } => {
                write!(f, "bit value {value} for qubit {qubit} is not 0 or 1")
            }
            RebindError::UnknownParamSlot { slot, slots } => {
                write!(f, "parameter slot {slot} out of range for a build with {slots} slots")
            }
            RebindError::NonFiniteParam { slot } => {
                write!(f, "non-finite value for parameter slot {slot}")
            }
        }
    }
}

impl std::error::Error for RebindError {}

impl NetworkBuild {
    /// Compute the leaf-tensor overrides that retarget this network's output
    /// projectors to a new bitstring, without re-running any planning.
    ///
    /// Only the rank-1 projector leaves depend on the output bits, so a
    /// contraction plan built over this network for one bitstring can execute
    /// any other bitstring by substituting the returned `(node index, data)`
    /// pairs for the original leaf data. `bits` must cover every qubit;
    /// entries for open (non-projected) qubits are ignored.
    pub fn rebind_output(
        &self,
        bits: &[u8],
    ) -> Result<Vec<(usize, DenseTensor<Complex64>)>, RebindError> {
        let mut overrides = Vec::new();
        self.rebind_output_into(bits, &mut overrides)?;
        Ok(overrides)
    }

    /// [`NetworkBuild::rebind_output`] into a caller-owned vector, reusing
    /// the projector tensors already in `overrides` (same shape, same wire)
    /// instead of allocating fresh ones — the hot path for sweeps that
    /// rebind the output bitstring many times over one plan. On error,
    /// `overrides` is left exactly as it was.
    pub fn rebind_output_into(
        &self,
        bits: &[u8],
        overrides: &mut Vec<(usize, DenseTensor<Complex64>)>,
    ) -> Result<(), RebindError> {
        self.validate_bits(bits)?;
        overrides.truncate(self.projector_leaves.len());
        for (i, &(qubit, node)) in self.projector_leaves.iter().enumerate() {
            let wire = self.nodes[node].indices.axes()[0];
            let reusable = overrides
                .get(i)
                .is_some_and(|(_, t)| t.data().len() == 2 && t.indices().axes() == [wire]);
            if reusable {
                let (id, tensor) = &mut overrides[i];
                *id = node;
                write_projector(tensor.data_mut(), bits[qubit]);
            } else {
                let fresh = (node, projection_node(qubit, wire, bits[qubit]).data);
                if i < overrides.len() {
                    overrides[i] = fresh;
                } else {
                    overrides.push(fresh);
                }
            }
        }
        Ok(())
    }

    /// Rewrite the projector leaves in place to target a new bitstring,
    /// reusing the existing leaf buffers (the wire index of each projector
    /// never changes, so neither do its `indices`). Mutating sibling of
    /// [`NetworkBuild::rebind_output`]. On error the build is untouched.
    pub fn rebind_output_in_place(&mut self, bits: &[u8]) -> Result<(), RebindError> {
        self.validate_bits(bits)?;
        for i in 0..self.projector_leaves.len() {
            let (qubit, node) = self.projector_leaves[i];
            write_projector(self.nodes[node].data.data_mut(), bits[qubit]);
        }
        Ok(())
    }

    /// Rewrite the projector leaves in place to target a new bitstring.
    /// Alias of [`NetworkBuild::rebind_output_in_place`], kept for the
    /// original rebind API surface.
    pub fn apply_rebind(&mut self, bits: &[u8]) -> Result<(), RebindError> {
        self.rebind_output_in_place(bits)
    }

    /// Check an output bitstring the way [`NetworkBuild::rebind_output`]
    /// does, without building any tensor: its length must match the qubit
    /// count, and every projected qubit's bit must be 0 or 1.
    pub fn validate_bits(&self, bits: &[u8]) -> Result<(), RebindError> {
        if bits.len() != self.num_qubits {
            return Err(RebindError::BitstringLength {
                expected: self.num_qubits,
                got: bits.len(),
            });
        }
        for &(qubit, _) in &self.projector_leaves {
            if bits[qubit] > 1 {
                return Err(RebindError::InvalidBit { qubit, value: bits[qubit] });
            }
        }
        Ok(())
    }

    /// The rebindable gate parameters discovered at build time, in
    /// `Circuit::ops()` order (for multi-parameter gates, in
    /// [`Gate::param_names`] order within the gate).
    pub fn param_slots(&self) -> &[ParamSlot] {
        &self.param_slots
    }

    /// Look up a slot by its canonical [`ParamSlot::name`].
    pub fn param_slot_index(&self, name: &str) -> Option<usize> {
        self.param_slots.iter().position(|s| s.name == name)
    }

    /// Node indices of the gate-tensor leaves backing the parameter slots,
    /// in leaf-ordinal order ([`ParamSlot::leaf`] indexes into this).
    pub fn param_leaf_vertices(&self) -> Vec<usize> {
        self.param_leaves.iter().map(|leaf| leaf.node).collect()
    }

    /// Rebind gate parameters in place: set each `(slot, value)` pair and
    /// regenerate the affected gate-tensor leaves from the gate's unitary at
    /// the new values. No index, shape or structure changes — a plan built
    /// over this network stays valid; only caches holding *contracted* data
    /// that depends on a touched leaf need invalidation.
    ///
    /// Returns the touched leaf ordinals (sorted, deduplicated) so callers
    /// can compute that invalidation cone. All updates are validated before
    /// any is applied: on error the build is untouched. Duplicate slots in
    /// `updates` are allowed; the last value wins.
    pub fn rebind_parameters(
        &mut self,
        updates: &[(usize, f64)],
    ) -> Result<Vec<usize>, RebindError> {
        for &(slot, value) in updates {
            if slot >= self.param_slots.len() {
                return Err(RebindError::UnknownParamSlot { slot, slots: self.param_slots.len() });
            }
            if !value.is_finite() {
                return Err(RebindError::NonFiniteParam { slot });
            }
        }
        let mut touched = Vec::with_capacity(updates.len());
        for &(slot, value) in updates {
            let slot = &mut self.param_slots[slot];
            let leaf = &mut self.param_leaves[slot.leaf];
            leaf.gate = leaf
                .gate
                .with_param(slot.param_index, value)
                .expect("slot table maps onto the gate's parameters");
            slot.value = value;
            touched.push(slot.leaf);
        }
        touched.sort_unstable();
        touched.dedup();
        for &ordinal in &touched {
            let leaf = &self.param_leaves[ordinal];
            self.nodes[leaf.node].data.data_mut().copy_from_slice(&leaf.gate.matrix());
        }
        Ok(touched)
    }
}

fn write_projector(data: &mut [Complex64], bit: u8) {
    data[0] = if bit == 0 { Complex64::ONE } else { Complex64::ZERO };
    data[1] = if bit == 0 { Complex64::ZERO } else { Complex64::ONE };
}

/// Convert a circuit and output specification into a tensor network.
pub fn circuit_to_network(circuit: &Circuit, output: &OutputSpec) -> NetworkBuild {
    let n = circuit.num_qubits();
    let mut next_index: IndexId = 0;
    let mut alloc = || {
        let id = next_index;
        next_index += 1;
        id
    };

    let mut nodes = Vec::new();
    // Current wire index of each qubit.
    let mut wire: Vec<IndexId> = (0..n).map(|_| alloc()).collect();

    // Initial |0> states.
    for (q, &w) in wire.iter().enumerate() {
        let data =
            DenseTensor::from_data(IndexSet::new(vec![w]), vec![Complex64::ONE, Complex64::ZERO]);
        nodes.push(TensorNode {
            indices: data.indices().clone(),
            data,
            label: format!("init[{q}]"),
        });
    }

    // Gates.
    let mut param_slots = Vec::new();
    let mut param_leaves: Vec<ParamLeaf> = Vec::new();
    for (g_idx, op) in circuit.ops().iter().enumerate() {
        let m = op.gate.matrix();
        if !op.gate.param_names().is_empty() {
            let leaf = param_leaves.len();
            param_leaves.push(ParamLeaf { node: nodes.len(), gate: op.gate.clone() });
            for (param_index, value) in op.gate.params().into_iter().enumerate() {
                param_slots.push(ParamSlot {
                    name: param_slot_name(g_idx, &op.gate, &op.qubits, param_index),
                    op_index: g_idx,
                    param_index,
                    leaf,
                    value,
                });
            }
        }
        match op.qubits.len() {
            1 => {
                let q = op.qubits[0];
                let i_in = wire[q];
                let i_out = alloc();
                // data[o*2 + i] = U[o][i]
                let data = DenseTensor::from_data(IndexSet::new(vec![i_out, i_in]), m.clone());
                nodes.push(TensorNode {
                    indices: data.indices().clone(),
                    data,
                    label: format!("g{g_idx}:{:?}[{q}]", op.gate),
                });
                wire[q] = i_out;
            }
            2 => {
                let (q0, q1) = (op.qubits[0], op.qubits[1]);
                let (i0, i1) = (wire[q0], wire[q1]);
                let (o0, o1) = (alloc(), alloc());
                // Tensor axes [o0, o1, i0, i1]; gate matrix basis has q0 as
                // the most significant bit of both row and column, matching
                // the axis order directly: data[(o0 o1 i0 i1)] = U[(o0 o1),(i0 i1)].
                let data = DenseTensor::from_data(IndexSet::new(vec![o0, o1, i0, i1]), m);
                nodes.push(TensorNode {
                    indices: data.indices().clone(),
                    data,
                    label: format!("g{g_idx}:2q[{q0},{q1}]"),
                });
                wire[q0] = o0;
                wire[q1] = o1;
            }
            a => unreachable!("unsupported gate arity {a}"),
        }
    }

    // Outputs.
    let mut open_indices = Vec::new();
    let mut projector_leaves = Vec::new();
    match output {
        OutputSpec::Amplitude(bits) => {
            assert_eq!(bits.len(), n, "amplitude bitstring length mismatch");
            for (q, (&w, &b)) in wire.iter().zip(bits.iter()).enumerate() {
                projector_leaves.push((q, nodes.len()));
                nodes.push(projection_node(q, w, b));
            }
        }
        OutputSpec::Open { fixed, open } => {
            assert_eq!(fixed.len(), n, "fixed bitstring length mismatch");
            for &q in open {
                assert!(q < n, "open qubit {q} out of range");
            }
            for (q, &w) in wire.iter().enumerate() {
                if open.contains(&q) {
                    open_indices.push((q, w));
                } else {
                    projector_leaves.push((q, nodes.len()));
                    nodes.push(projection_node(q, w, fixed[q]));
                }
            }
        }
    }

    NetworkBuild {
        nodes,
        open_indices,
        num_indices: next_index,
        num_qubits: n,
        projector_leaves,
        param_slots,
        param_leaves,
    }
}

fn projection_node(q: usize, w: IndexId, bit: u8) -> TensorNode {
    assert!(bit <= 1, "projection bit must be 0 or 1");
    let data = DenseTensor::from_data(
        IndexSet::new(vec![w]),
        if bit == 0 {
            vec![Complex64::ONE, Complex64::ZERO]
        } else {
            vec![Complex64::ZERO, Complex64::ONE]
        },
    );
    TensorNode { indices: data.indices().clone(), data, label: format!("proj[{q}]={bit}") }
}

/// Contract the whole network by brute force (repeated pairwise contraction
/// in construction order). Exponential in the number of open indices and
/// intermediate ranks, so only suitable for small circuits; used as a
/// correctness oracle by tests across the workspace.
pub fn contract_network_naive(build: &NetworkBuild) -> DenseTensor<Complex64> {
    let mut acc: Option<DenseTensor<Complex64>> = None;
    for node in &build.nodes {
        acc = Some(match acc {
            None => node.data.clone(),
            Some(t) => qtn_tensor::contract_pair(&t, &node.data),
        });
    }
    let _ = c64(0.0, 0.0);
    acc.expect("empty network")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::gate::Gate;

    fn amplitude(circuit: &Circuit, bits: &[u8]) -> Complex64 {
        let build = circuit_to_network(circuit, &OutputSpec::Amplitude(bits.to_vec()));
        contract_network_naive(&build).scalar_value()
    }

    #[test]
    fn empty_circuit_amplitudes() {
        let c = Circuit::new(2);
        assert!((amplitude(&c, &[0, 0]) - Complex64::ONE).abs() < 1e-12);
        assert!(amplitude(&c, &[0, 1]).abs() < 1e-12);
        assert!(amplitude(&c, &[1, 0]).abs() < 1e-12);
        assert!(amplitude(&c, &[1, 1]).abs() < 1e-12);
    }

    #[test]
    fn hadamard_superposition() {
        let mut c = Circuit::new(1);
        c.push1(Gate::H, 0);
        let a0 = amplitude(&c, &[0]);
        let a1 = amplitude(&c, &[1]);
        let h = 1.0 / 2f64.sqrt();
        assert!((a0 - c64(h, 0.0)).abs() < 1e-12);
        assert!((a1 - c64(h, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        let h = 1.0 / 2f64.sqrt();
        assert!((amplitude(&c, &[0, 0]) - c64(h, 0.0)).abs() < 1e-12);
        assert!((amplitude(&c, &[1, 1]) - c64(h, 0.0)).abs() < 1e-12);
        assert!(amplitude(&c, &[0, 1]).abs() < 1e-12);
        assert!(amplitude(&c, &[1, 0]).abs() < 1e-12);
    }

    #[test]
    fn x_gate_flips() {
        let mut c = Circuit::new(2);
        c.push1(Gate::X, 1);
        assert!((amplitude(&c, &[0, 1]) - Complex64::ONE).abs() < 1e-12);
        assert!(amplitude(&c, &[0, 0]).abs() < 1e-12);
    }

    #[test]
    fn node_counts() {
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0).push2(Gate::Cz, 0, 1).push1(Gate::T, 2);
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0, 0, 0]));
        // 3 inits + 3 gates + 3 projections
        assert_eq!(b.nodes.len(), 9);
        assert!(b.open_indices.is_empty());
        // indices: 3 initial wires + 1 (H out) + 2 (CZ out) + 1 (T out) = 7
        assert_eq!(b.num_indices, 7);
    }

    #[test]
    fn open_output_produces_state_over_open_qubits() {
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        let b = circuit_to_network(&c, &OutputSpec::Open { fixed: vec![0, 0], open: vec![0, 1] });
        assert_eq!(b.open_indices.len(), 2);
        let t = contract_network_naive(&b);
        assert_eq!(t.rank(), 2);
        // Bell state amplitudes.
        let h = 1.0 / 2f64.sqrt();
        assert!((t.norm_sqr() - 1.0).abs() < 1e-12);
        // Order the axes as (q0, q1) to check entries.
        let order: IndexSet = b.open_indices.iter().map(|&(_, id)| id).collect();
        let t = qtn_tensor::permute::permute_to_order(&t, &order);
        assert!((t.get(&[0, 0]) - c64(h, 0.0)).abs() < 1e-12);
        assert!((t.get(&[1, 1]) - c64(h, 0.0)).abs() < 1e-12);
        assert!(t.get(&[0, 1]).abs() < 1e-12);
    }

    #[test]
    fn partially_open_network() {
        // Bell pair, fix qubit 0 to |0>, leave qubit 1 open: result prop to |0>.
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        let b = circuit_to_network(&c, &OutputSpec::Open { fixed: vec![0, 0], open: vec![1] });
        let t = contract_network_naive(&b);
        assert_eq!(t.rank(), 1);
        let h = 1.0 / 2f64.sqrt();
        assert!((t.get(&[0]) - c64(h, 0.0)).abs() < 1e-12);
        assert!(t.get(&[1]).abs() < 1e-12);
    }

    #[test]
    fn unitarity_preserves_total_probability() {
        // Sum over all 8 amplitudes of |a|^2 must be 1 for a 3-qubit circuit.
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0)
            .push1(Gate::SqrtY, 1)
            .push1(Gate::T, 2)
            .push2(Gate::sycamore_fsim(), 0, 1)
            .push2(Gate::Cz, 1, 2)
            .push1(Gate::SqrtW, 0);
        let mut total = 0.0;
        for b0 in 0..2u8 {
            for b1 in 0..2u8 {
                for b2 in 0..2u8 {
                    total += amplitude(&c, &[b0, b1, b2]).norm_sqr();
                }
            }
        }
        assert!((total - 1.0).abs() < 1e-10, "total probability {total}");
    }

    #[test]
    #[should_panic(expected = "bitstring length mismatch")]
    fn wrong_bitstring_length_panics() {
        let c = Circuit::new(2);
        circuit_to_network(&c, &OutputSpec::Amplitude(vec![0]));
    }

    #[test]
    fn rebind_output_retargets_amplitudes_without_rebuilding() {
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        let mut build = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0, 0]));
        assert_eq!(build.projector_leaves.len(), 2);
        let h = 1.0 / 2f64.sqrt();
        // Rebinding |00> -> |11> must reproduce the freshly-built network.
        build.apply_rebind(&[1, 1]).unwrap();
        let rebound = contract_network_naive(&build).scalar_value();
        assert!((rebound - c64(h, 0.0)).abs() < 1e-12);
        build.apply_rebind(&[0, 1]).unwrap();
        assert!(contract_network_naive(&build).scalar_value().abs() < 1e-12);
    }

    #[test]
    fn rebind_output_ignores_open_qubits() {
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        let mut build =
            circuit_to_network(&c, &OutputSpec::Open { fixed: vec![0, 0], open: vec![1] });
        assert_eq!(build.projector_leaves.len(), 1);
        // Project qubit 0 onto |1>; qubit 1 stays open.
        build.apply_rebind(&[1, 0]).unwrap();
        let t = contract_network_naive(&build);
        let h = 1.0 / 2f64.sqrt();
        assert!(t.get(&[0]).abs() < 1e-12);
        assert!((t.get(&[1]) - c64(h, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn rebind_output_validates_input() {
        let c = Circuit::new(2);
        let build = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0, 0]));
        assert_eq!(
            build.rebind_output(&[0]),
            Err(RebindError::BitstringLength { expected: 2, got: 1 })
        );
        assert_eq!(
            build.rebind_output(&[0, 2]),
            Err(RebindError::InvalidBit { qubit: 1, value: 2 })
        );
    }

    #[test]
    fn rebind_output_in_place_reuses_leaf_buffers() {
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        let mut build = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0, 0]));
        let ptrs: Vec<_> = build
            .projector_leaves
            .iter()
            .map(|&(_, n)| build.nodes[n].data.data().as_ptr())
            .collect();
        build.rebind_output_in_place(&[1, 1]).unwrap();
        let after: Vec<_> = build
            .projector_leaves
            .iter()
            .map(|&(_, n)| build.nodes[n].data.data().as_ptr())
            .collect();
        assert_eq!(ptrs, after, "in-place rebind must not reallocate projector buffers");
        let h = 1.0 / 2f64.sqrt();
        assert!((contract_network_naive(&build).scalar_value() - c64(h, 0.0)).abs() < 1e-12);
        // A failed rebind leaves the build untouched.
        let snapshot: Vec<_> = build.nodes.iter().map(|n| n.data.clone()).collect();
        assert!(build.rebind_output_in_place(&[1, 2]).is_err());
        let unchanged: Vec<_> = build.nodes.iter().map(|n| n.data.clone()).collect();
        assert_eq!(snapshot, unchanged);
    }

    #[test]
    fn rebind_output_into_reuses_caller_buffers() {
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        let build = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0, 0]));
        let mut overrides = Vec::new();
        build.rebind_output_into(&[1, 1], &mut overrides).unwrap();
        assert_eq!(overrides, build.rebind_output(&[1, 1]).unwrap());
        let ptrs: Vec<_> = overrides.iter().map(|(_, t)| t.data().as_ptr()).collect();
        build.rebind_output_into(&[0, 1], &mut overrides).unwrap();
        let after: Vec<_> = overrides.iter().map(|(_, t)| t.data().as_ptr()).collect();
        assert_eq!(ptrs, after, "second rebind must reuse the caller's tensors");
        assert_eq!(overrides, build.rebind_output(&[0, 1]).unwrap());
        // A failed rebind leaves the caller's vector exactly as it was.
        let snapshot = overrides.clone();
        assert!(build.rebind_output_into(&[0, 7], &mut overrides).is_err());
        assert_eq!(overrides, snapshot);
    }

    #[test]
    fn param_slots_cover_parameterized_gates_with_canonical_names() {
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0)
            .push1(Gate::Rz(0.25), 1)
            .push2(Gate::FSim { theta: 0.5, phi: -0.75 }, 0, 2)
            .push1(Gate::Ry(1.5), 1);
        let build = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0, 0, 0]));
        let names: Vec<_> = build.param_slots().iter().map(ParamSlot::name).collect();
        assert_eq!(
            names,
            ["g1:rz[1].theta", "g2:fsim[0,2].theta", "g2:fsim[0,2].phi", "g3:ry[1].theta"]
        );
        let values: Vec<_> = build.param_slots().iter().map(ParamSlot::value).collect();
        assert_eq!(values, [0.25, 0.5, -0.75, 1.5]);
        // Both FSim angles share one leaf; node ids follow circuit order
        // (3 inits, then one node per gate).
        let leaves: Vec<_> = build.param_slots().iter().map(ParamSlot::leaf).collect();
        assert_eq!(leaves, [0, 1, 1, 2]);
        assert_eq!(build.param_leaf_vertices(), [4, 5, 6]);
        assert_eq!(build.param_slot_index("g2:fsim[0,2].phi"), Some(2));
        assert_eq!(build.param_slot_index("g0:h[0].theta"), None);
    }

    #[test]
    fn rebind_parameters_matches_a_fresh_build_bit_for_bit() {
        let mut c = Circuit::new(2);
        c.push1(Gate::Rx(0.3), 0)
            .push2(Gate::FSim { theta: 0.9, phi: 0.2 }, 0, 1)
            .push1(Gate::Rz(-1.1), 1);
        let mut build = circuit_to_network(&c, &OutputSpec::Amplitude(vec![1, 0]));
        // Rebind Rx.theta (slot 0) and FSim.phi (slot 2).
        let touched = build.rebind_parameters(&[(0, 2.2), (2, 0.8)]).unwrap();
        assert_eq!(touched, [0, 1], "cone covers exactly the two touched leaves");
        let mut fresh = Circuit::new(2);
        fresh
            .push1(Gate::Rx(2.2), 0)
            .push2(Gate::FSim { theta: 0.9, phi: 0.8 }, 0, 1)
            .push1(Gate::Rz(-1.1), 1);
        let fresh = circuit_to_network(&fresh, &OutputSpec::Amplitude(vec![1, 0]));
        for (a, b) in build.nodes.iter().zip(fresh.nodes.iter()) {
            assert_eq!(a.data, b.data, "leaf {} must match the fresh build exactly", a.label);
        }
        assert_eq!(build.param_slots()[0].value(), 2.2);
        assert_eq!(build.param_slots()[2].value(), 0.8);
        // Duplicate slots: last value wins, leaf reported once.
        let touched = build.rebind_parameters(&[(1, 0.1), (1, 0.9)]).unwrap();
        assert_eq!(touched, [1]);
        assert_eq!(build.param_slots()[1].value(), 0.9);
    }

    #[test]
    fn rebind_parameters_rejects_bad_updates_atomically() {
        let mut c = Circuit::new(1);
        c.push1(Gate::Rz(0.5), 0);
        let mut build = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0]));
        let snapshot: Vec<_> = build.nodes.iter().map(|n| n.data.clone()).collect();
        // A valid update listed before the invalid one must not be applied.
        assert_eq!(
            build.rebind_parameters(&[(0, 1.0), (7, 2.0)]),
            Err(RebindError::UnknownParamSlot { slot: 7, slots: 1 })
        );
        assert_eq!(
            build.rebind_parameters(&[(0, 1.0), (0, f64::NAN)]),
            Err(RebindError::NonFiniteParam { slot: 0 })
        );
        let unchanged: Vec<_> = build.nodes.iter().map(|n| n.data.clone()).collect();
        assert_eq!(snapshot, unchanged);
        assert_eq!(build.param_slots()[0].value(), 0.5);
        // The empty update set is a no-op, not an error.
        assert_eq!(build.rebind_parameters(&[]), Ok(Vec::new()));
    }
}
