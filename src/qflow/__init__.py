"""qflow: a self-contained quantum-circuit toolchain.

Parse OpenQASM 2.0 (with a timing ``delay`` extension and a compact binary
container), transpile logical circuits onto device topologies, and evaluate
them with state-vector, noisy density-matrix, and stabilizer backends.

    from qflow import parse_qasm, transpile, load_bundled_device, sv_run

    circuit = parse_qasm(open("bell.qasm").read())
    device = load_bundled_device("line5")
    physical, report = transpile(circuit, device)
    result = sv_run(physical, seed=7, shots=1024)
"""

from .binio import decode_binary, encode_binary
from .circuit import Circuit, Instruction, Register
from .decompose import decompose_to_u_cx, retarget_1q, retarget_2q
from .density import dm_evolve, dm_run, fidelity
from .device import (
    DeviceConfig,
    Topology,
    bundled_device_names,
    load_bundled_device,
    load_device,
)
from .errors import (
    BinaryFormatError,
    DeviceConfigError,
    NonCliffordError,
    QasmError,
    QFlowError,
    RoutingError,
    SimulationError,
    TranspileError,
    UnsupportedBasisError,
)
from .flatten import flatten
from .gates import BasisSet, GateSpec, LIBRARY, gate_manifest, unitary_of
from .layout import Layout, initial_mapping
from .metrics import MetricsReport, analyze, circuit_depth
from .noise import depolarizing_kraus, thermal_relaxation_kraus
from .parser import parse_qasm
from .printer import print_qasm
from .results import RunResult
from .routing import route
from .schedule import Schedule, schedule_asap
from .stabilizer import StabilizerTableau, stab_run
from .statevector import sv_run, sv_statevector
from .transpile import TranspileReport, transpile

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Register", "Instruction",
    "parse_qasm", "print_qasm", "encode_binary", "decode_binary", "flatten",
    "GateSpec", "BasisSet", "LIBRARY", "unitary_of", "gate_manifest",
    "decompose_to_u_cx", "retarget_1q", "retarget_2q",
    "DeviceConfig", "Topology", "load_device", "load_bundled_device", "bundled_device_names",
    "Layout", "initial_mapping", "route", "Schedule", "schedule_asap",
    "transpile", "TranspileReport",
    "sv_run", "sv_statevector", "dm_run", "dm_evolve", "fidelity",
    "stab_run", "StabilizerTableau",
    "depolarizing_kraus", "thermal_relaxation_kraus", "RunResult",
    "MetricsReport", "analyze", "circuit_depth",
    "QFlowError", "QasmError", "BinaryFormatError", "DeviceConfigError",
    "TranspileError", "UnsupportedBasisError", "RoutingError",
    "SimulationError", "NonCliffordError",
]
