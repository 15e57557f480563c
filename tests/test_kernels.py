"""The dense kernel family and one-qubit fusion: diagonal, monomial and
general kernels against the literal embedding, the classes superoperators
inherit, the work buffers of multi-wire kernels, one kernel per density-
matrix op, where fusion stops, and amplitudes against the dense unitary."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import density
from qflow.density import _DensityState, _superop, dm_evolve, dm_run
from qflow.device import load_bundled_device
from qflow.gates import unitary_of
from qflow.parser import parse_qasm
from qflow.program import Op, Program, walk
from qflow.stabilizer import stab_run
from qflow.statevector import Kernel, apply_gate, sv_run, sv_statevector
from qflow.transpile import transpile

from conftest import corpus_sources, qft_qasm, random_general_qasm
from oracles import circuit_unitary, distribution_problem, embed_slow, exact_distribution

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

# -- the kernel family ---------------------------------------------------------

# phases include exactly 1 (a slice left alone) and exact -1 and i
_PHASES = st.sampled_from([1.0, -1.0, 1j, -1j, np.exp(0.7j), 0.5 - 2j])


@st.composite
def _gates(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, min(3, n)))
    wires = tuple(draw(st.permutations(range(n)))[:k])
    size = 1 << k
    kind = draw(st.sampled_from(["diagonal", "monomial", "general"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "general":
        m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    else:
        perm = list(range(size)) if kind == "diagonal" else draw(st.permutations(range(size)))
        m = np.zeros((size, size), dtype=complex)
        for j, i in enumerate(perm):
            m[i, j] = draw(_PHASES)
        if perm == list(range(size)):
            kind = "diagonal"
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return n, wires, m, kind, state


@settings(max_examples=150, deadline=None)
@given(_gates())
def test_kernels_match_the_literal_embedding(gate):
    n, wires, m, kind, state = gate
    kernel = Kernel(m, n, wires)
    assert kernel.kind == kind
    expected = embed_slow(m, wires, n) @ state
    apply_gate(state, kernel, [])
    np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)


def test_a_general_kernel_on_one_wire_matches_the_literal_embedding():
    """Both one-wire forms, a right product over rows on a low wire and a
    left product per block above it, on every wire of 1 to 7 qubits."""
    rng = np.random.default_rng(5)
    forms = set()
    for n in range(1, 8):
        for w in range(n):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            kernel = Kernel(m, n, (w,))
            assert kernel.kind == "general" and kernel.axes is None
            forms.add(kernel.right is None)
            expected = embed_slow(m, (w,), n) @ state
            apply_gate(state, kernel, [])
            np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)
    assert forms == {True, False}


def _random_u3(rng) -> str:
    return "u3({},{},{})".format(*rng.uniform(-np.pi, np.pi, 3).tolist())


def test_a_noiseless_one_wire_channel_is_one_kernel_on_its_ket_and_bra():
    """A gate and a fused run, on every wire of 1 to 5 qubits of a settled
    rho: the op's one kernel is its 4x4 superoperator on the wire's ket and
    bra qubit, 2q + 1 and 2q."""
    rng = np.random.default_rng(6)
    for n in range(1, 6):
        for q in range(n):
            for gates in (1, 2):
                text = "".join(f"{_random_u3(rng)} q[{q}];\n" for _ in range(gates))
                op, = Program(parse_qasm(HEADER + f"qreg q[{n}];\n" + text)).run_ops(True)
                state = _DensityState(range(n), None)
                state.settle()
                state.amps = rng.normal(size=4**n) + 1j * rng.normal(size=4**n)
                expected = state.amps.copy()
                apply_gate(expected, Kernel(_superop([op.matrix]), 2 * n, (2 * q + 1, 2 * q)), [])
                state.apply(op)
                kernel, = state.kernels.values()
                assert kernel.wires == (2 * q + 1, 2 * q)
                np.testing.assert_allclose(state.amps, expected, rtol=0, atol=1e-12)


def test_one_wire_general_kernels_move_no_axes(monkeypatch):
    """sv runs and noiseless walks over rho of one-wire general gates on
    every wire, with cx and cz between them, never reach np.moveaxis: sv
    applies each gate as a one-wire form, a single matmul over contiguous
    blocks, and rho as one buffered kernel on the wire's ket and bra qubit.
    (A deviceless dm_run of this program walks a state vector, so the walk
    over rho is run directly.)"""
    rng = np.random.default_rng(7)
    text = HEADER + "qreg q[6];\ncreg c[6];\n"
    for layer in range(3):
        text += "".join(f"{_random_u3(rng)} q[{q}];\nh q[{q}];\n" for q in range(6))
        text += "".join(f"cx q[{q}],q[{q + 1}];\ncz q[{q + 1}],q[{q}];\n" for q in range(5))
    c = parse_qasm(text + "measure q -> c;\n")

    def runs():
        program = Program(c)
        return (sv_run(c, seed=3, shots=100).counts,
                walk(program, _DensityState(program.wires, None), 100, 3))

    expected = runs()

    def refuse(*args, **kwargs):
        raise AssertionError("np.moveaxis called")

    monkeypatch.setattr(np, "moveaxis", refuse)
    assert runs() == expected
    assert expected[1] == dm_run(c, seed=3, shots=100).counts


@pytest.mark.parametrize("body, device", [
    ("cx q[1],q[2];\n", "line5"),
    ("u3(0.3,0.2,0.1) q[0];\n", None),
    ("u3(0.3,0.2,0.1) q[2];\n", None),
    ("u3(0.3,0.2,0.1) q[4];\n", None),
], ids=["noisy-cx", "u3-q0", "u3-q2", "u3-q4"])
def test_multi_wire_general_kernels_allocate_no_state_sized_array(body, device):
    """A noisy cx is a general kernel on four wires of a settled 10-qubit
    rho, a noiseless u3 one on two, its wire's ket and bra qubit. The first
    call allocates the state's two work buffers, which a copy shares; a
    later call allocates less than one state."""
    op, = Program(parse_qasm(HEADER + "qreg q[5];\n" + body)).run_ops(True)
    state = _DensityState(range(5), device and load_bundled_device(device))
    state.settle()
    state.apply(op)
    kernel, = state.kernels.values()
    assert kernel.kind == "general" and len(kernel.wires) == 2 * len(op.wires)
    assert [a.nbytes for a in state.work] == [state.amps.nbytes] * 2
    assert state.copy().work is state.work
    assert _DensityState(range(5), None).work is not state.work
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        state.apply(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < state.amps.nbytes


def test_noisy_dm_runs_move_no_axes(monkeypatch):
    """Multi-wire general kernels, the noisy two-qubit channels included,
    copy the state's transposed block view into its work buffers. (The
    programs measure nothing, so no readout confusion is folded into the
    sampled marginal, which qflow.results does with np.moveaxis.)"""
    physical = []
    for name, n in (("line5", 5), ("heavyhex7", 5)):
        device = load_bundled_device(name)
        c, _ = transpile(parse_qasm(qft_qasm(n)), device)
        physical.append((c, device))
    expected = [dm_run(c, device=d, seed=3, shots=100) for c, d in physical]

    def refuse(*args, **kwargs):
        raise AssertionError("np.moveaxis called")

    monkeypatch.setattr(np, "moveaxis", refuse)
    got = [dm_run(c, device=d, seed=3, shots=100) for c, d in physical]
    assert [(r.counts, r.fidelity) for r in got] == [(r.counts, r.fidelity) for r in expected]


@pytest.mark.parametrize("name, two", [("grid9", "cz"), ("line5", "cx")])
def test_every_dm_op_is_one_kernel_on_the_ket_and_bra_of_its_wires(name, two, monkeypatch):
    """grid9 carries no noise and line5 does; on both, every op on a settled
    rho, a general one-wire run included, is one kernel on (ket wires...,
    bra wires...), qubits 2i + 1 and 2i for the wire at position i."""
    applied = []
    monkeypatch.setattr(density, "apply_gate",
                        lambda amps, kernel, work: applied.append(kernel)
                        or apply_gate(amps, kernel, work))
    device = load_bundled_device(name)
    text = HEADER + "qreg q[4];\n"
    for layer in range(3):
        text += "".join(f"rz({0.3 + q + layer}) q[{q}];\nsx q[{q}];\nrz(0.7) q[{q}];\n"
                        for q in range(4))
        text += "".join(f"{two} q[{q}],q[{q + 1}];\n" for q in range(3))
    program = Program(parse_qasm(text + "sx q[3];\nx q[0];\n"))
    state = _DensityState(range(program.n), device)
    state.settle()
    general = set()
    for op in program.run_ops(True):
        applied.clear()
        state.apply(op)
        kernel, = applied
        local = tuple(state.pos[w] for w in op.wires)
        assert kernel.wires == tuple(2 * i + 1 for i in local) + tuple(2 * i for i in local)
        if kernel.kind == "general":
            general.add(len(op.wires))
    assert 1 in general


def test_a_kernel_on_every_wire_has_no_0d_slice():
    state = np.arange(8, dtype=complex)
    kernel = Kernel(np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex), 3, (2, 0, 1))
    apply_gate(state, kernel, [])
    assert kernel.shape == (-1, 2, 1, 2, 1, 2, 1)
    np.testing.assert_array_equal(state, [0, 1, 2, 3, 4, 5, 6, -7])
    state = np.arange(4, dtype=complex)
    apply_gate(state, Kernel(unitary_of("swap"), 2, (1, 0)), [])
    np.testing.assert_array_equal(state, [0, 2, 1, 3])


@pytest.mark.parametrize("name, params, kind", [
    ("cu1", (0.3,), "diagonal"), ("rz", (1.1,), "diagonal"), ("t", (), "diagonal"),
    ("cx", (), "monomial"), ("swap", (), "monomial"), ("cy", (), "monomial"),
    ("h", (), "general"), ("crx", (0.4,), "general"),
])
def test_gates_and_their_superoperators_share_a_class(name, params, kind):
    m = unitary_of(name, params)
    k = m.shape[0].bit_length() - 1
    wires = tuple(range(k))
    assert Kernel(m, 3, wires).kind == kind
    superop = Kernel(_superop([m]), 6, tuple(3 + w for w in wires) + wires)
    assert superop.kind == kind


def test_unit_phases_are_skipped():
    kernel = Kernel(unitary_of("cu1", (0.3,)), 4, (1, 3))
    assert len(kernel.scales) == 1 and not kernel.cycles
    kernel = Kernel(unitary_of("cx"), 4, (1, 3))
    assert not kernel.scales and len(kernel.cycles) == 1


# -- fusion ----------------------------------------------------------------------

_RUN = "h q[0];\nt q[0];\nry(0.7) q[0];\n"
_BOUNDARIES = {
    "measure": "measure q[0] -> c[0];\n",
    "reset": "reset q[0];\n",
    "if": "if(c==0) sx q[0];\n",
    "barrier": "barrier q;\n",
}


def _boundary_circuit(boundary: str):
    return parse_qasm(HEADER + "qreg q[2];\ncreg c[2];\nh q[1];\nmeasure q[1] -> c[1];\n"
                      + _RUN + _BOUNDARIES[boundary] + _RUN + "cx q[0],q[1];\nmeasure q -> c;\n")


@pytest.mark.parametrize("boundary", sorted(_BOUNDARIES))
def test_a_one_qubit_run_ends_at_a_boundary(boundary):
    program = Program(_boundary_circuit(boundary))
    assert program.run_ops(False) is program.ops
    wire0 = [op for op in program.run_ops(True) if 0 in op.wires]
    assert [op.opcode for op in wire0] == ["fused", wire0[1].opcode, "fused", "cx", "measure"]
    assert [op.opcode for op in wire0[0].run] == ["h", "t", "ry"]
    assert wire0[2].run[0] is program.ops[program.ops.index(wire0[1]) + 1]


def test_an_op_keeps_its_key_and_matrix_and_the_tableau_never_asks(monkeypatch):
    """A run is one op like any other: its matrix is the product of its
    gates' and its key names each of them. Each is built once, on first
    use; the tableau applies gates by name and never asks for a key."""
    ops = Program(_boundary_circuit("barrier")).run_ops(True)
    assert all(op.run is None for op in ops if op.opcode != "fused")
    fused = next(op for op in ops if op.run)
    assert fused.key == ("fused", (("h", ()), ("t", ()), ("ry", (0.7,))), (0,))
    h, t, ry = (op.matrix for op in fused.run)
    assert np.array_equal(fused.matrix, ry @ (t @ h))
    assert all(op.key is op.key and op.matrix is op.matrix for op in ops if op.gate)
    monkeypatch.setattr(Op, "key", property(lambda op: pytest.fail("the tableau read a key")))
    text = HEADER + "qreg q[2];\ncreg c[2];\nh q[0];\ns q[0];\ncx q[0],q[1];\nmeasure q -> c;\n"
    assert sum(stab_run(parse_qasm(text), seed=3, shots=16).counts.values()) == 16


# Counts at seed 11, 64 shots. These programs branch at their mid-circuit
# measure, so the counts were re-pinned when the shot walker replaced
# per-shot trajectories, after they passed the exact-distribution TV check;
# fusing one-qubit runs had left the earlier pins unchanged.
PINNED_BOUNDARY = {
    ("sv", "measure"): {"00": 16, "01": 13, "10": 18, "11": 17},
    ("dm", "measure"): {"00": 16, "01": 13, "10": 18, "11": 17},
    ("sv", "reset"): {"00": 12, "01": 27, "10": 4, "11": 21},
    ("dm", "reset"): {"00": 6, "01": 22, "10": 9, "11": 27},
    ("sv", "if"): {"00": 12, "01": 12, "10": 19, "11": 21},
    ("dm", "if"): {"00": 12, "01": 12, "10": 19, "11": 21},
    ("sv", "barrier"): {"00": 24, "01": 12, "10": 19, "11": 9},
    ("dm", "barrier"): {"00": 24, "01": 12, "10": 19, "11": 9},
}


@pytest.mark.parametrize("backend, boundary", sorted(PINNED_BOUNDARY))
def test_fused_trajectories_keep_their_seeded_counts(backend, boundary):
    run = {"sv": sv_run, "dm": dm_run}[backend]
    counts = run(_boundary_circuit(boundary), seed=11, shots=64).counts
    assert counts == PINNED_BOUNDARY[backend, boundary]
    problem = distribution_problem(counts, exact_distribution(_boundary_circuit(boundary)), 64)
    assert problem is None, problem


# -- amplitudes ------------------------------------------------------------------

_SOURCES = dict(corpus_sources() + [("qft7", qft_qasm(7))] + [
    (f"general_n{n}", random_general_qasm(n, 60, seed)) for n, seed in ((3, 400), (6, 401))])


@pytest.mark.parametrize("name", sorted(_SOURCES))
def test_amplitudes_match_the_dense_unitary(name):
    c = parse_qasm(_SOURCES[name])
    np.testing.assert_allclose(sv_statevector(c), circuit_unitary(c)[:, 0], rtol=0, atol=1e-10)
