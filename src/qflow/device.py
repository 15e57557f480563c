"""Device configuration (JSON) and topology queries.

A device file describes what the transpiler and the noisy simulator need to
know about a machine: qubit count, coupling map, basis gates, per-gate
durations and depolarizing error rates, per-qubit T1/T2 and readout
confusion, and the cycle time that converts delay cycles to nanoseconds.

Units are fixed: nanoseconds for durations and cycle time, microseconds for
T1/T2. Omitted noise fields default to noiseless (error 0, infinite T1/T2,
perfect readout). Duration and error entries may be overridden per operand
with keys like ``"cx:3_5"`` (two-qubit pair) or ``"x:3"`` (single qubit).
"""

from __future__ import annotations

import json
import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from importlib import resources

from .errors import DeviceConfigError

__all__ = ["DeviceConfig", "Topology", "load_device", "distance",
           "bundled_device_names", "load_bundled_device"]

# a device holds per-qubit tuples and an n x n distance table, so a file may
# not ask for more qubits than this
MAX_QUBITS = 1024


@dataclass(frozen=True)
class Topology:
    """Undirected view of a coupling map with hop-count distances."""

    n: int
    adjacency: tuple          # tuple[tuple[int, ...]] sorted neighbor lists
    dist: tuple               # row-major tuple of tuples; -1 marks unreachable

    @classmethod
    def from_edges(cls, n: int, edges) -> "Topology":
        neighbors = [set() for _ in range(n)]
        for a, b in edges:
            neighbors[a].add(b)
            neighbors[b].add(a)
        adjacency = tuple(tuple(sorted(s)) for s in neighbors)
        rows = []
        for src in range(n):
            row = [-1] * n
            row[src] = 0
            queue = deque([src])
            while queue:
                u = queue.popleft()
                for v in adjacency[u]:
                    if row[v] < 0:
                        row[v] = row[u] + 1
                        queue.append(v)
            rows.append(tuple(row))
        return cls(n, adjacency, tuple(rows))

    def distance(self, a: int, b: int) -> int | float:
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise DeviceConfigError(f"qubit index out of range: distance({a}, {b})")
        d = self.dist[a][b]
        return math.inf if d < 0 else d

    def connected(self) -> bool:
        return all(d >= 0 for d in self.dist[0]) if self.n else True


def distance(topology: Topology, a: int, b: int) -> int | float:
    """Unweighted shortest-path hop count (inf if disconnected)."""
    return topology.distance(a, b)


@dataclass(frozen=True)
class DeviceConfig:
    name: str
    num_qubits: int
    basis_gates: tuple
    coupling_map: tuple            # directed pairs as given in the file
    gate_durations_ns: dict
    cycle_time_ns: float
    gate_errors: dict = field(default_factory=dict)
    t1_us: tuple = ()
    t2_us: tuple = ()
    readout: tuple = ()            # per qubit (P(read 0|0), P(read 1|1))

    def topology(self) -> Topology:
        return Topology.from_edges(self.num_qubits, self.coupling_map)

    def directed_edges(self) -> frozenset:
        return frozenset((a, b) for a, b in self.coupling_map)

    def _lookup(self, table: dict, gate: str, qubits, default):
        if qubits:
            key = f"{gate}:{'_'.join(str(q) for q in qubits)}"
            if key in table:
                return table[key]
        return table.get(gate, default)

    def duration_of(self, gate: str, qubits=()) -> float:
        dur = self._lookup(self.gate_durations_ns, gate, qubits, None)
        if dur is None:
            if gate in ("barrier",):
                return 0.0
            if gate in ("measure", "reset", "id", "u0"):
                return 0.0
            raise DeviceConfigError(
                f"device '{self.name}' has no duration entry for gate '{gate}'"
            )
        return float(dur)

    def error_of(self, gate: str, qubits=()) -> float:
        return float(self._lookup(self.gate_errors, gate, qubits, 0.0))

    def is_noisy(self) -> bool:
        if any(v > 0 for v in self.gate_errors.values()):
            return True
        if any(math.isfinite(t) for t in self.t1_us + self.t2_us):
            return True
        return any(r != (1.0, 1.0) for r in self.readout)


def _require(obj: dict, key: str, typ, path: str):
    if key not in obj:
        raise DeviceConfigError(f"{path}: missing required field '{key}'")
    val = obj[key]
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, typ) or isinstance(val, bool):
        raise DeviceConfigError(
            f"{path}.{key}: expected {getattr(typ, '__name__', typ)}, got {type(val).__name__}"
        )
    return val


def _number(val, message: str) -> float:
    """A JSON number as a float. A bool, a non-number or an integer beyond
    float range raises DeviceConfigError(message)."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        try:
            return float(val)
        except OverflowError:
            pass
    raise DeviceConfigError(message)


def load_device(json_text: str) -> DeviceConfig:
    """Parse and validate a device configuration JSON document."""
    try:
        raw = json.loads(json_text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int() digit limit
        raise DeviceConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DeviceConfigError("device configuration must be a JSON object")
    path = "device"

    name = _require(raw, "name", str, path)
    n = _require(raw, "num_qubits", int, path)
    if not 1 <= n <= MAX_QUBITS:
        raise DeviceConfigError(f"{path}.num_qubits: must be in [1, {MAX_QUBITS}]")

    basis = _require(raw, "basis_gates", list, path)
    if not basis or not all(isinstance(g, str) for g in basis):
        raise DeviceConfigError(f"{path}.basis_gates: must be a nonempty list of gate names")

    coupling = _require(raw, "coupling_map", list, path)
    edges = []
    for i, pair in enumerate(coupling):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        ):
            raise DeviceConfigError(f"{path}.coupling_map[{i}]: expected a pair of qubit indices")
        a, b = pair
        if a == b or not (0 <= a < n) or not (0 <= b < n):
            raise DeviceConfigError(
                f"{path}.coupling_map[{i}]: invalid edge [{a}, {b}] for {n} qubits"
            )
        edges.append((a, b))

    durations = dict(_require(raw, "gate_durations_ns", dict, path))
    for key, val in durations.items():
        message = f"{path}.gate_durations_ns['{key}']: expected a finite duration >= 0"
        durations[key] = _number(val, message)
        if not 0 <= durations[key] < math.inf:
            raise DeviceConfigError(message)
    for gate in basis:
        if gate not in durations:
            raise DeviceConfigError(
                f"{path}.gate_durations_ns: missing entry for basis gate '{gate}'"
            )

    cycle = _require(raw, "cycle_time_ns", (int, float), path)
    message = f"{path}.cycle_time_ns: must be positive and finite"
    cycle = _number(cycle, message)
    if not 0 < cycle < math.inf:
        raise DeviceConfigError(f"{message}, got {cycle}")

    errors = raw.get("gate_errors", {})
    if not isinstance(errors, dict):
        raise DeviceConfigError(f"{path}.gate_errors: expected an object")
    errors = dict(errors)
    for key, val in errors.items():
        message = f"{path}.gate_errors['{key}']: expected a probability in [0, 1]"
        errors[key] = _number(val, message)
        if not 0 <= errors[key] <= 1:
            raise DeviceConfigError(message)

    def qubit_list(key: str, default_val: float) -> tuple:
        if key not in raw:
            return (default_val,) * n
        vals = raw[key]
        if not isinstance(vals, list) or len(vals) != n:
            raise DeviceConfigError(f"{path}.{key}: expected a list of {n} values")
        out = []
        for i, v in enumerate(vals):
            # infinity means no relaxation, as when the list is left out
            message = f"{path}.{key}[{i}]: expected a positive number"
            out.append(_number(v, message))
            if not out[-1] > 0:
                raise DeviceConfigError(message)
        return tuple(out)

    t1 = qubit_list("t1_us", math.inf)
    t2 = qubit_list("t2_us", math.inf)
    for q in range(n):
        if t2[q] > 2 * t1[q]:
            raise DeviceConfigError(
                f"{path}.t2_us[{q}]: T2 = {t2[q]} exceeds 2*T1 = {2 * t1[q]}"
            )

    if "readout" in raw:
        ro_raw = raw["readout"]
        if not isinstance(ro_raw, list) or len(ro_raw) != n:
            raise DeviceConfigError(f"{path}.readout: expected a list of {n} pairs")
        readout = []
        for i, pair in enumerate(ro_raw):
            message = f"{path}.readout[{i}]: expected [P(read 0|0), P(read 1|1)] in [0, 1]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise DeviceConfigError(message)
            pair = (_number(pair[0], message), _number(pair[1], message))
            if not all(0 <= x <= 1 for x in pair):
                raise DeviceConfigError(message)
            readout.append(pair)
        readout = tuple(readout)
    else:
        readout = ((1.0, 1.0),) * n

    config = DeviceConfig(
        name=name,
        num_qubits=n,
        basis_gates=tuple(basis),
        coupling_map=tuple(edges),
        gate_durations_ns=durations,
        cycle_time_ns=cycle,
        gate_errors=errors,
        t1_us=t1,
        t2_us=t2,
        readout=readout,
    )
    if not config.topology().connected():
        warnings.warn(
            f"device '{name}': coupling graph is not connected", stacklevel=2
        )
    return config


def bundled_device_names() -> list[str]:
    files = resources.files("qflow.devices")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_bundled_device(name: str) -> DeviceConfig:
    """Load one of the device files shipped with the package."""
    ref = resources.files("qflow.devices").joinpath(f"{name}.json")
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DeviceConfigError(
            f"no bundled device '{name}' (available: {', '.join(bundled_device_names())})"
        ) from None
    return load_device(text)
