"""Noise channel library: depolarizing, thermal relaxation, readout.

Conventions (these fix how device gate_errors values are interpreted):

  * Depolarizing with probability p mixes fully at p = 1:
    one qubit    rho -> (1-p) rho + p I/2
    two qubits   rho -> (1-p) rho + p I/4 (applied jointly on the pair)
  * Thermal relaxation over time t multiplies the excited population by
    e^(-t/T1) and the off-diagonal coherence by e^(-t/T2). It is the
    composition of amplitude damping with gamma = 1 - e^(-t/T1) and pure
    dephasing making up the remaining coherence loss; T2 <= 2 T1 keeps the
    dephasing parameter a probability. The channel is a semigroup in t.
  * Readout confusion is classical: a pair (P(read 0|0), P(read 1|1)) turning
    into the column-stochastic matrix [[p00, 1-p11], [1-p00, p11]].

Each quantum channel comes in two forms. The Kraus operators are the
reference; the superoperator, which qflow.density applies, is written in
closed form (Nielsen & Chuang, ch. 8) and equals sum K (x) conj(K) over them.
A superoperator acts on vec(rho), rho read row-major, so its row and column
index is ket * d + bra, the (ket, bra) order of qflow.density.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SimulationError
from .gates import unitary_of

__all__ = [
    "depolarizing_kraus",
    "depolarizing_superop",
    "thermal_relaxation_kraus",
    "thermal_relaxation_superop",
    "readout_matrix",
]

_PAULIS = {label: unitary_of(gate) for label, gate in zip("IXYZ", ("id", "x", "y", "z"))}
# the 16 two-qubit Pauli products, first factor on the high qubit
_PAULIS_2Q = {a + b: np.kron(_PAULIS[a], _PAULIS[b]) for a in _PAULIS for b in _PAULIS}


def _check_depolarizing(p: float, n_qubits: int) -> None:
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"depolarizing probability {p} outside [0, 1]")
    if n_qubits not in (1, 2):
        raise SimulationError("depolarizing channel supports 1 or 2 qubits")


def depolarizing_kraus(p: float, n_qubits: int = 1) -> list[np.ndarray]:
    """Kraus operators of the n-qubit depolarizing channel (n in {1, 2}).

    Uses the Pauli-twirl form: surviving identity weight 1 - p (4**n - 1)/4**n
    and p/4**n on every non-identity Pauli tensor.
    """
    _check_depolarizing(p, n_qubits)
    dim = 4 ** n_qubits
    ops = []
    for label, mat in (_PAULIS if n_qubits == 1 else _PAULIS_2Q).items():
        weight = 1.0 - p * (dim - 1) / dim if label.strip("I") == "" else p / dim
        if weight > 0.0:
            ops.append(math.sqrt(weight) * mat)
    return ops


def depolarizing_superop(p: float, n_qubits: int) -> np.ndarray:
    """The superoperator of depolarizing_kraus(p, n_qubits) in closed form:
    (1-p) I + (p/d) |vec I><vec I| with d = 2**n."""
    _check_depolarizing(p, n_qubits)
    d = 1 << n_qubits
    s = np.eye(d * d, dtype=complex)
    s *= 1.0 - p
    s[::d + 1, ::d + 1] += p / d  # vec(I) is 1 at every (d+1)-th entry
    return s


def _relaxation(t_ns: float, t1_ns: float, t2_ns: float) -> tuple[float, float]:
    """(gamma, lam) of relaxation over t_ns: the amplitude damping and the
    pure dephasing parameter. Raises SimulationError for t < 0 or T2 > 2 T1."""
    if t_ns < 0:
        raise SimulationError(f"negative duration {t_ns}")
    if t2_ns > 2.0 * t1_ns:
        raise SimulationError(f"T2 = {t2_ns} exceeds 2*T1 = {2.0 * t1_ns}")
    relax_rate = 0.0 if math.isinf(t1_ns) else 1.0 / t1_ns
    # max: float dust when T2 == 2 T1
    dephase_rate = max((0.0 if math.isinf(t2_ns) else 1.0 / t2_ns) - 0.5 * relax_rate, 0.0)
    if math.isinf(t_ns):  # a zero rate then means no decay, not inf * 0
        return (0.0 if relax_rate == 0.0 else 1.0), (0.0 if dephase_rate == 0.0 else 1.0)
    return 1.0 - math.exp(-t_ns * relax_rate), 1.0 - math.exp(-t_ns * dephase_rate)


def thermal_relaxation_kraus(t_ns: float, t1_ns: float, t2_ns: float) -> list[np.ndarray]:
    """Kraus set for relaxation over t_ns with constants T1, T2 (same units).

    Zero operators are dropped, so t = 0 (or infinite T1 and T2) returns a
    single identity operator. Infinite time constants are accepted and mean
    no decay of that kind.
    """
    gamma, lam = _relaxation(t_ns, t1_ns, t2_ns)
    a0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    p0 = math.sqrt(1.0 - lam) * np.eye(2, dtype=complex)
    p1 = math.sqrt(lam) * np.diag([1.0, 0.0]).astype(complex)
    p2 = math.sqrt(lam) * np.diag([0.0, 1.0]).astype(complex)

    ops = []
    for phase_op in (p0, p1, p2):
        for amp_op in (a0, a1):
            k = phase_op @ amp_op
            if np.max(np.abs(k)) > 1e-15:
                ops.append(k)
    return ops


def thermal_relaxation_superop(t_ns: float, t1_ns: float, t2_ns: float) -> np.ndarray:
    """The superoperator of thermal_relaxation_kraus in closed form: the
    excited population moves to |0> with weight gamma and the coherences
    scale by c = sqrt(1 - gamma) (1 - lam), e^(-t/T2) for finite t."""
    gamma, lam = _relaxation(t_ns, t1_ns, t2_ns)
    c = math.sqrt(1.0 - gamma) * (1.0 - lam)
    return np.array([[1.0, 0.0, 0.0, gamma], [0.0, c, 0.0, 0.0], [0.0, 0.0, c, 0.0],
                     [0.0, 0.0, 0.0, 1.0 - gamma]], dtype=complex)


def readout_matrix(p00: float, p11: float) -> np.ndarray:
    """Column-stochastic confusion matrix M[read, true]."""
    if not (0.0 <= p00 <= 1.0 and 0.0 <= p11 <= 1.0):
        raise SimulationError("readout fidelities must lie in [0, 1]")
    return np.array([[p00, 1.0 - p11], [1.0 - p00, p11]], dtype=float)
