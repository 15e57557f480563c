"""Device configuration loading, validation, and topology queries."""

import json
import math
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from qflow import dm_run, parse_qasm, transpile
from qflow.device import (
    Topology,
    bundled_device_names,
    distance,
    load_bundled_device,
    load_device,
)
from qflow.errors import DeviceConfigError, QFlowError

from oracles import floyd_warshall


def _minimal(n=3, **overrides):
    cfg = {
        "name": "test",
        "num_qubits": n,
        "basis_gates": ["rz", "sx", "x", "cx"],
        "coupling_map": [[i, i + 1] for i in range(n - 1)]
        + [[i + 1, i] for i in range(n - 1)],
        "gate_durations_ns": {"rz": 0, "sx": 30, "x": 30, "cx": 200},
        "cycle_time_ns": 1.0,
    }
    cfg.update(overrides)
    return json.dumps(cfg)


class TestLoadDevice:
    def test_line3_distances(self):
        dev = load_device(_minimal(3))
        topo = dev.topology()
        assert topo.distance(0, 2) == 2
        assert topo.distance(1, 1) == 0

    def test_t2_bound_violation_names_field(self):
        with pytest.raises(DeviceConfigError, match=r"t2_us\[0\]"):
            load_device(_minimal(1, coupling_map=[], t1_us=[50.0], t2_us=[120.0]))

    def test_t2_equal_twice_t1_allowed(self):
        dev = load_device(_minimal(1, coupling_map=[], t1_us=[50.0], t2_us=[100.0]))
        assert dev.t2_us == (100.0,)

    def test_noise_defaults(self):
        dev = load_device(_minimal())
        assert dev.gate_errors == {}
        assert dev.error_of("cx", (0, 1)) == 0.0
        assert all(math.isinf(t) for t in dev.t1_us + dev.t2_us)
        assert dev.readout == ((1.0, 1.0),) * 3
        assert not dev.is_noisy()

    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            ({"num_qubits": 0}, "num_qubits"),
            ({"coupling_map": [[0, 5]]}, r"coupling_map\[0\]"),
            ({"coupling_map": [[1, 1]]}, r"coupling_map\[0\]"),
            ({"basis_gates": []}, "basis_gates"),
            ({"gate_durations_ns": {"rz": 0}}, "missing entry for basis gate"),
            ({"cycle_time_ns": 0}, "cycle_time_ns"),
            ({"gate_errors": {"cx": 1.5}}, r"gate_errors\['cx'\]"),
            ({"readout": [[0.9, 1.2], [1, 1], [1, 1]]}, r"readout\[0\]"),
            ({"t1_us": [1.0]}, "t1_us"),
            ({"gate_durations_ns": {"rz": 0, "sx": 30, "x": 30, "cx": math.nan}},
             r"gate_durations_ns\['cx'\]: expected a finite duration"),
            ({"gate_durations_ns": {"rz": 0, "sx": 30, "x": 30, "cx": math.inf}},
             r"gate_durations_ns\['cx'\]: expected a finite duration"),
            ({"cycle_time_ns": math.nan}, "cycle_time_ns: must be positive and finite"),
            ({"cycle_time_ns": math.inf}, "cycle_time_ns: must be positive and finite"),
            ({"t1_us": [100.0, math.nan, 100.0]}, r"t1_us\[1\]: expected a positive number"),
            ({"t2_us": [math.nan, 100.0, 100.0]}, r"t2_us\[0\]: expected a positive number"),
            # integers beyond float range
            ({"cycle_time_ns": 10**400}, "cycle_time_ns: must be positive and finite"),
            ({"t1_us": [10**400, 100.0, 100.0]}, r"t1_us\[0\]: expected a positive number"),
            ({"gate_durations_ns": {"rz": 0, "sx": 30, "x": 30, "cx": 10**400}},
             r"gate_durations_ns\['cx'\]: expected a finite duration"),
            ({"num_qubits": 10**400}, r"num_qubits: must be in \[1, 1024\]"),
            ({"num_qubits": 1025}, r"num_qubits: must be in \[1, 1024\]"),
        ],
    )
    def test_validation_errors(self, overrides, fragment):
        with pytest.raises(DeviceConfigError, match=fragment):
            load_device(_minimal(**overrides))

    def test_an_integer_past_the_digit_limit_is_invalid_json(self):
        # json.loads raises a plain ValueError past int()'s 4300-digit limit
        text = _minimal().replace('"cycle_time_ns": 1.0', '"cycle_time_ns": 1' + "0" * 5000)
        with pytest.raises(DeviceConfigError, match="invalid JSON"):
            load_device(text)

    def test_infinite_relaxation_times_mean_no_relaxation(self):
        dev = load_device(_minimal(2, t1_us=[math.inf, 80.0], t2_us=[math.inf, 100.0]))
        assert dev.t1_us == (math.inf, 80.0)
        assert dev.t2_us == (math.inf, 100.0)

    def test_missing_required_field(self):
        cfg = json.loads(_minimal())
        del cfg["coupling_map"]
        with pytest.raises(DeviceConfigError, match="coupling_map"):
            load_device(json.dumps(cfg))

    def test_invalid_json(self):
        with pytest.raises(DeviceConfigError, match="invalid JSON"):
            load_device("{nope")

    def test_disconnected_warns(self):
        with pytest.warns(UserWarning, match="not connected"):
            load_device(_minimal(3, coupling_map=[[0, 1], [1, 0]]))

    def test_per_pair_overrides(self):
        dev = load_device(
            _minimal(
                3,
                gate_durations_ns={"rz": 0, "sx": 30, "x": 30, "cx": 200, "cx:1_2": 333},
                gate_errors={"cx": 0.01, "cx:1_2": 0.02, "x:1": 0.005},
            )
        )
        assert dev.duration_of("cx", (0, 1)) == 200
        assert dev.duration_of("cx", (1, 2)) == 333
        assert dev.error_of("cx", (1, 2)) == 0.02
        assert dev.error_of("x", (1,)) == 0.005
        assert dev.error_of("x", (0,)) == 0.0

    def test_missing_duration_entry(self):
        dev = load_device(_minimal())
        with pytest.raises(DeviceConfigError, match="no duration entry"):
            dev.duration_of("u3", (0,))


class TestTopology:
    def test_grid_distance(self):
        # 2x2 grid: 0-1, 0-2, 1-3, 2-3
        topo = Topology.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert topo.distance(0, 3) == 2
        assert distance(topo, 3, 0) == 2

    def test_disconnected_distance_is_inf(self):
        topo = Topology.from_edges(3, [(0, 1)])
        assert topo.distance(0, 2) == math.inf
        assert not topo.connected()

    def test_out_of_range(self):
        topo = Topology.from_edges(2, [(0, 1)])
        with pytest.raises(DeviceConfigError):
            topo.distance(0, 5)

    def test_matches_floyd_warshall_on_bundled(self):
        for name in bundled_device_names():
            dev = load_bundled_device(name)
            topo = dev.topology()
            ref = floyd_warshall(dev.num_qubits, dev.coupling_map)
            for a in range(dev.num_qubits):
                for b in range(dev.num_qubits):
                    assert topo.distance(a, b) == ref[a][b], (name, a, b)

    def test_symmetry_and_triangle(self):
        for name in bundled_device_names():
            topo = load_bundled_device(name).topology()
            n = topo.n
            for a in range(n):
                assert topo.distance(a, a) == 0
                for b in range(n):
                    assert topo.distance(a, b) == topo.distance(b, a)
                    for c in range(n):
                        assert topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c)


class TestBundledLibrary:
    def test_all_bundled_files_load(self):
        names = bundled_device_names()
        assert {"line5", "heavyhex7", "grid9", "alltoall11"} <= set(names)
        for name in names:
            dev = load_bundled_device(name)
            assert dev.num_qubits >= 1

    def test_unknown_bundled_name(self):
        with pytest.raises(DeviceConfigError, match="no bundled device"):
            load_bundled_device("imaginary")

    def test_expected_shapes(self):
        assert load_bundled_device("line5").num_qubits == 5
        assert load_bundled_device("heavyhex7").num_qubits == 7
        grid = load_bundled_device("grid9")
        assert grid.num_qubits == 9
        ion = load_bundled_device("alltoall11")
        assert ion.num_qubits == 11
        topo = ion.topology()
        assert all(
            topo.distance(a, b) <= 1
            for a in range(11)
            for b in range(11)
        )


# -- hostile device files ------------------------------------------------------

_HOSTILE_VALUES = [math.nan, math.inf, -1, 0, 10**400, "x", [0], {"a": 1}, True]
_CIRCUIT = parse_qasm('OPENQASM 2.0; include "qelib1.inc"; qreg q[2]; creg c[2];'
                      "h q[0]; cx q[0],q[1]; delay q[1], 3; measure q -> c;")


def _bundled_json(name: str) -> dict:
    return json.loads(resources.files("qflow.devices").joinpath(f"{name}.json").read_text())


def _paths(node, path=()):
    """The key path of every field, list element and dict value under node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


# a device first, then a site in it, so that alltoall11's 110 coupling
# pairs do not crowd out the other devices
_SITES = st.sampled_from(bundled_device_names()).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(list(_paths(_bundled_json(name))))))


@pytest.mark.filterwarnings("ignore:device .* coupling graph is not connected")
@given(site=_SITES, value=st.sampled_from(_HOSTILE_VALUES))
@example(site=("line5", ("t1_us", 0)), value=math.nan)  # once numpy's ValueError in dm_run
@example(site=("grid9", ("num_qubits",)), value=10**400)  # once OverflowError from load_device
@settings(max_examples=200, deadline=None)
def test_a_hostile_device_file_raises_only_qflow_errors(site, value):
    """One field, list element or dict value of a bundled device replaced:
    loading raises only DeviceConfigError, and a device that loads compiles
    and runs a small circuit with a delay raising only QFlowError."""
    name, path = site
    raw = _bundled_json(name)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        device = load_device(json.dumps(raw))
    except DeviceConfigError:
        return
    try:
        physical, _ = transpile(_CIRCUIT, device)
        if device.num_qubits <= 9:  # a 4**11 density matrix takes 0.3 s a run
            dm_run(physical, device, shots=8)
    except QFlowError:
        pass
