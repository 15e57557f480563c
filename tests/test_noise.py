"""dm_evolve under a small JSON device against the closed forms stated in
qflow.noise: depolarizing on one qubit and jointly on a pair, T1/T2 decay
over a delay, and reset; the two-qubit Pauli products against np.kron; the
closed-form superoperators against those of the Kraus operators, and the
checks they share."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from qflow.density import _superop, dm_evolve
from qflow.device import load_device
from qflow.errors import SimulationError
from qflow.noise import (depolarizing_kraus, depolarizing_superop, thermal_relaxation_kraus,
                         thermal_relaxation_superop)
from qflow.parser import parse_qasm
from qflow.statevector import sv_statevector

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
P0 = np.diag([1.0, 0.0]).astype(complex)


def device(gate_errors=None, t1_us=None, t2_us=None):
    """Two coupled qubits, zero gate durations, 10 ns cycles."""
    raw = {"name": "closed_form", "num_qubits": 2, "basis_gates": ["ry", "id", "cx", "x"],
           "coupling_map": [[0, 1], [1, 0]],
           "gate_durations_ns": {"ry": 0.0, "id": 0.0, "cx": 0.0, "x": 0.0},
           "cycle_time_ns": 10.0, "gate_errors": gate_errors or {}}
    if t1_us is not None:
        raw["t1_us"] = [t1_us, t1_us]
        raw["t2_us"] = [t2_us, t2_us]
    return load_device(json.dumps(raw))


def pure(body: str) -> np.ndarray:
    psi = sv_statevector(parse_qasm(HEADER + body))
    return np.outer(psi, psi.conj())


@pytest.mark.parametrize("wire", [0, 1])
def test_one_qubit_depolarizing(wire):
    p = 0.3
    body = f"ry(0.7) q[0];\ncx q[0],q[1];\nry(0.3) q[1];\nid q[{wire}];\n"
    rho = pure(body)
    # axes (ket q1, ket q0, bra q1, bra q0); trace out the depolarized wire
    t = rho.reshape(2, 2, 2, 2)
    if wire == 0:
        rest = np.einsum("ajbj->ab", t)
        mixed = np.kron(rest, np.eye(2) / 2)
    else:
        rest = np.einsum("jajb->ab", t)
        mixed = np.kron(np.eye(2) / 2, rest)
    got = dm_evolve(parse_qasm(HEADER + body), device({"id": p}))
    np.testing.assert_allclose(got, (1 - p) * rho + p * mixed, atol=1e-12)


def test_joint_two_qubit_depolarizing():
    p = 0.2
    body = "ry(0.7) q[0];\nry(1.1) q[1];\ncx q[1],q[0];\n"
    got = dm_evolve(parse_qasm(HEADER + body), device({"cx": p}))
    np.testing.assert_allclose(got, (1 - p) * pure(body) + p * np.eye(4) / 4, atol=1e-12)


@pytest.mark.parametrize("wire", [0, 1])
def test_delay_decays_population_by_t1_and_coherence_by_t2(wire):
    t1_ns, t2_ns, t_ns = 1000.0, 800.0, 500.0
    theta = 2.0
    got = dm_evolve(parse_qasm(HEADER + f"ry({theta}) q[{wire}];\ndelay q[{wire}], 50;\n"),
                    device(t1_us=t1_ns / 1000, t2_us=t2_ns / 1000))
    excited = math.sin(theta / 2) ** 2 * math.exp(-t_ns / t1_ns)
    coherence = math.sin(theta / 2) * math.cos(theta / 2) * math.exp(-t_ns / t2_ns)
    one = np.array([[1 - excited, coherence], [coherence, excited]], dtype=complex)
    want = np.kron(P0, one) if wire == 0 else np.kron(one, P0)
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("wire", [0, 1])
def test_reset_of_one_gives_zero(wire):
    got = dm_evolve(parse_qasm(HEADER + f"x q[0];\nx q[1];\nreset q[{wire}];\n"), device())
    want = np.zeros((4, 4), dtype=complex)
    keep = 3 & ~(1 << wire)
    want[keep, keep] = 1.0
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_two_qubit_depolarizing_operators_are_the_kron_products():
    paulis = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    for p in (0.0, 0.03, 1.0):
        weights = [1.0 - p * 15 / 16] + [p / 16] * 15
        want = [math.sqrt(w) * np.kron(a, b)
                for w, (a, b) in zip(weights, [(a, b) for a in paulis for b in paulis]) if w > 0.0]
        got = depolarizing_kraus(p, 2)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # the products are shared between calls, so no caller may get one to mutate
    got[0] *= 0
    assert np.array_equal(depolarizing_kraus(1.0, 2)[0], want[0])


def test_each_operand_of_a_two_qubit_gate_relaxes_by_its_own_t1_and_t2():
    t_ns, t1_ns, t2_ns, theta = 500.0, (1000.0, 4000.0), (800.0, 3000.0), 2.0
    raw = {"name": "closed_form", "num_qubits": 2, "basis_gates": ["ry", "cx", "x"],
           "coupling_map": [[0, 1], [1, 0]],
           "gate_durations_ns": {"ry": 0.0, "cx": t_ns, "x": 0.0}, "cycle_time_ns": 10.0,
           "t1_us": [t / 1000 for t in t1_ns], "t2_us": [t / 1000 for t in t2_ns]}
    # |1> on q[0] and X ry(theta)|0> on q[1] after the cx, then relaxation
    got = dm_evolve(parse_qasm(HEADER + f"x q[0];\nry({theta}) q[1];\ncx q[0],q[1];\n"),
                    load_device(json.dumps(raw)))
    decayed = math.exp(-t_ns / t1_ns[0])
    first = np.diag([1 - decayed, decayed]).astype(complex)
    excited = math.cos(theta / 2) ** 2 * math.exp(-t_ns / t1_ns[1])
    coherence = math.sin(theta / 2) * math.cos(theta / 2) * math.exp(-t_ns / t2_ns[1])
    second = np.array([[1 - excited, coherence], [coherence, excited]], dtype=complex)
    np.testing.assert_allclose(got, np.kron(second, first), atol=1e-12)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", [0.0, 1e-3, 1.0])
def test_depolarizing_in_closed_form_is_the_kraus_superoperator(p, k):
    np.testing.assert_allclose(depolarizing_superop(p, k), _superop(depolarizing_kraus(p, k)),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("t_ns", [0.0, 35.0, math.inf])
@pytest.mark.parametrize("t1_ns, t2_ns", [
    (85e3, 110e3), (85e3, 170e3), (math.inf, 110e3), (math.inf, math.inf), (70.0, 140.0)])
def test_relaxation_in_closed_form_is_the_kraus_superoperator(t_ns, t1_ns, t2_ns):
    """T2 = 2 T1 is pure amplitude damping; t = inf with T1 = inf must not
    read inf * 0 as NaN."""
    np.testing.assert_allclose(thermal_relaxation_superop(t_ns, t1_ns, t2_ns),
                               _superop(thermal_relaxation_kraus(t_ns, t1_ns, t2_ns)),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("change, message", [
    ({"gate_errors": {"cx": 1.5}}, "depolarizing probability 1.5 outside"),
    ({"t1_us": (1.0, 1.0), "t2_us": (3.0, 1.0)}, "T2 = 3000.0 exceeds 2[*]T1 = 2000.0"),
])
def test_a_device_built_in_python_meets_the_channel_checks(change, message):
    """load_device refuses these values; a DeviceConfig built in Python
    reaches the noise builders, which refuse them too."""
    base = dataclasses.replace(device(t1_us=1.0, t2_us=1.0),
                               gate_durations_ns={"ry": 0.0, "id": 0.0, "cx": 50.0, "x": 0.0})
    with pytest.raises(SimulationError, match=message):
        dm_evolve(parse_qasm(HEADER + "x q[0];\ncx q[0],q[1];\n"),
                  dataclasses.replace(base, **change))
