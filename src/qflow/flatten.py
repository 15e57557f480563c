"""The flat-circuit check.

``parse_qasm`` expands gate macros and register-wide statements as it reads
them, so every circuit is flat: ``flatten`` checks one with
``Circuit.resolve`` and returns it as it is, its resolution kept.
"""

from __future__ import annotations

from .circuit import Circuit

__all__ = ["flatten"]


def flatten(circuit: Circuit) -> Circuit:
    """``circuit``, once ``Circuit.resolve`` has checked it."""
    circuit.resolve()
    return circuit
