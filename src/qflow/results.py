"""Run results and measurement sampling.

Bitstring convention: classical bit (n-1) down to bit 0, left to right, so
the leftmost character is the highest-numbered bit. Circuits without any
measure instruction are sampled over all qubits in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SimulationError
from .noise import readout_matrix

__all__ = ["RunResult", "draw_counts", "sample_marginal"]

_EPS = 1e-12  # a likelihood taken as 0, so that rounding residue is never drawn
_HALF = np.uint64(1 << 22)  # half of the 23 low mantissa bits a draw does not see
_KEEP = np.uint64(~((1 << 23) - 1) & ((1 << 64) - 1))


def _round30(p: np.ndarray) -> np.ndarray:
    """p, a contiguous nonnegative float64 array, rounded in place to 30
    significant bits (to nearest, a tie away from zero) and returned.

    numpy's binomial draw is not continuous in p (it mirrors at p = 1/2), so
    two evolutions equal but for rounding could draw different counts;
    probabilities that agree to about 1e-16 round to the same bits unless
    they straddle a rounding midpoint. Adding half of the dropped bits to
    the bit pattern and clearing them carries into the exponent exactly
    as frexp, rounding the mantissa, and ldexp would."""
    bits = p.view(np.uint64)
    bits += _HALF
    bits &= _KEEP
    return p


def _round30_float(p: float) -> float:
    """One probability rounded as _round30 rounds each entry, for a single
    draw: m * 2**30 + 0.5 is exact for a mantissa m in [0.5, 1)."""
    m, e = math.frexp(p)
    return math.ldexp(math.floor(m * 1073741824.0 + 0.5), e - 30)


def draw_counts(probabilities, shots: int, rng) -> dict[int, int]:
    """Multinomial draw of ``shots`` outcomes from ``rng`` over a probability
    vector, each entry below _EPS of the largest taken as 0 and the rest
    rounded to 30 significant bits (see _round30); counts keyed by index sum
    to shots."""
    p = np.asarray(probabilities, dtype=float).reshape(-1)
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    if p.size == 0:
        raise SimulationError("empty probability vector")
    lo = float(p.min())
    if lo < -1e-9:
        raise SimulationError(f"negative probability {lo}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise SimulationError(f"probabilities sum to {total}, expected 1")
    p = np.clip(p, 0.0, None)
    p[p < _EPS * p.max()] = 0.0
    p = _round30(p)
    p /= p.sum()
    draws = rng.multinomial(shots, p)
    nz = np.flatnonzero(draws)
    return dict(zip(nz.tolist(), draws[nz].tolist()))


def sample_marginal(probs: np.ndarray, wires: tuple, qubits: list[int], count: int, rng,
                    readout=None) -> dict[int, int]:
    """Counts of ``count`` draws from a basis distribution over ``wires``
    (ascending; bit i is wires[i]) reduced to ``qubits``, an ascending subset,
    keyed by value with bit j for qubits[j], through readout confusion when
    ``readout`` lists (P(0|0), P(1|1)) per qubit."""
    n = len(wires)
    # axis a of the reshaped vector is wire wires[n-1-a]
    dropped = tuple(n - 1 - i for i, w in enumerate(wires) if w not in qubits)
    t = np.reshape(probs, (2,) * n)
    if dropped:
        t = t.sum(axis=dropped)
    for j, q in enumerate(qubits if readout else ()):
        axis = len(qubits) - 1 - j
        t = np.moveaxis(np.tensordot(readout_matrix(*readout[q]), t, axes=([1], [axis])), 0, axis)
    return draw_counts(t.reshape(-1), count, rng)


@dataclass
class RunResult:
    """Outcome of one simulator run; ``mem_bytes_estimate`` is the size in
    bytes of the state the run held: 16 per amplitude for ``sv``, 16 per
    entry of rho for ``dm``, and the tableau's bits rounded up to whole bytes
    for ``stab``. A ``dm`` run with no device and no reset walks a state
    vector instead (see qflow.density), so it never allocates rho, yet it
    reports rho's size, as the density run whose counts it gives would."""

    backend: str
    n_qubits: int
    shots: int
    seed: int
    counts: dict
    fidelity: float | None = None
    wall_time_ms: float = 0.0
    mem_bytes_estimate: int = 0
    amplitudes: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self, include_timing: bool = False, include_amplitudes: bool = False) -> dict:
        out = {
            "backend": self.backend,
            "n_qubits": self.n_qubits,
            "shots": self.shots,
            "seed": self.seed,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
        }
        if self.fidelity is not None:
            out["fidelity"] = self.fidelity
        if include_timing:
            out["wall_time_ms"] = self.wall_time_ms
        out["mem_bytes_estimate"] = self.mem_bytes_estimate
        if include_amplitudes and self.amplitudes is not None:
            out["amplitudes"] = [[float(a.real), float(a.imag)] for a in self.amplitudes]
        return out
