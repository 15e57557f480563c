"""The sv, dm and stab backends: seeded counts, agreement between backends,
regressions for fixed defects, qubit caps and the run-result schema."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qflow.cli import main
from qflow.density import dm_evolve, dm_run
from qflow.device import load_bundled_device
from qflow.errors import SimulationError
from qflow.flatten import flatten
from qflow.gates import unitary_of
from qflow.noise import depolarizing_kraus
from qflow.parser import parse_qasm
from qflow.printer import print_qasm
from qflow.stabilizer import stab_run
from qflow.statevector import sv_run, sv_statevector
from qflow.transpile import transpile

from conftest import (adder4_qasm, bell_qasm, corpus_sources, ghz_qasm, qft_qasm,
                      random_clifford_qasm, random_clifford_t_qasm, random_general_qasm)
from oracles import NON_UNITARY, embed_slow

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "schemas" / "run_result.schema.json"
RUNS = {"sv": sv_run, "dm": dm_run, "stab": stab_run}

CIRCUITS = {
    "bell": bell_qasm(),
    "ghz3": ghz_qasm(3, measure=True),
    "qft3": qft_qasm(3),
    "adder4": adder4_qasm(),
    "cliffordt": random_clifford_t_qasm(3, 20, seed=100),
    "general": random_general_qasm(3, 15, seed=200),
    "clifford": random_clifford_qasm(4, 20, seed=1),
    "clifford_measured": random_clifford_qasm(4, 20, seed=2) + "creg c[4];\nmeasure q -> c;\n",
    "ghz_mid": HEADER + "qreg q[3];\ncreg c[3];\nh q[0];\nmeasure q[0] -> c[0];\n"
               "cx q[0],q[1];\ncx q[1],q[2];\nmeasure q -> c;\n",
    "teleport": HEADER + "qreg q[3];\ncreg m[2];\ncreg out[1];\nh q[0];\ns q[0];\n"
                "h q[1];\ncx q[1],q[2];\ncx q[0],q[1];\nh q[0];\nmeasure q[0] -> m[0];\n"
                "measure q[1] -> m[1];\nif(m==2) x q[2];\nif(m==3) y q[2];\nif(m==1) z q[2];\n"
                "h q[2];\nmeasure q[2] -> out[0];\n",
    "gate_after_measure": HEADER + "qreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\n"
                          "measure q[0] -> c[0];\nh q[2];\ncx q[1],q[2];\n"
                          "measure q[1] -> c[1];\nmeasure q[2] -> c[2];\n",
    "permuted": HEADER + "qreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\nh q[2];\n"
                "measure q[0] -> c[2];\nmeasure q[1] -> c[0];\nmeasure q[2] -> c[1];\n",
    "reset_entangled": HEADER + "qreg q[2];\ncreg c[1];\nh q[0];\ncx q[0],q[1];\nreset q[0];\n"
                       "measure q[1] -> c[0];\n",
    "clbit_overwrite": HEADER + "qreg q[2];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\n"
                       "measure q[1] -> c[0];\n",
    "reuse": HEADER + "qreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\nx q[1];\nreset q[0];\n"
             "h q[0];\ncx q[0],q[2];\ns q[2];\nreset q[0];\nh q[0];\nmeasure q -> c;\n",
    "syndrome": HEADER + "qreg q[4];\ncreg s[2];\ncreg d[3];\nh q[0];\ncx q[0],q[1];\n"
                "cx q[0],q[3];\ncx q[1],q[3];\nmeasure q[3] -> s[0];\nreset q[3];\n"
                "h q[2];\ncx q[1],q[3];\ncx q[2],q[3];\nmeasure q[3] -> s[1];\nreset q[3];\n"
                "if(s==2) x q[2];\nif(s==3) x q[1];\nmeasure q[0] -> d[0];\n"
                "measure q[1] -> d[1];\nmeasure q[2] -> d[2];\n",
}

# Counts at seed 11, 64 shots. The sv and dm entries are circuits that
# measure every qubit into the clbit of the same index (or a permutation, for
# sv), measure nothing, or run per-shot trajectories; the stab entries have
# no reset. Recorded before the backends shared one program form and shot
# loop, and kept byte-identical by it.
PINNED = {
    ("sv", "bell"): {"00": 31, "11": 33},
    ("sv", "ghz3"): {"000": 31, "111": 33},
    ("sv", "qft3"): {"000": 5, "001": 8, "010": 9, "011": 4, "100": 7, "101": 14, "110": 5,
                     "111": 12},
    ("sv", "adder4"): {"1011": 64},
    ("sv", "cliffordt"): {"000": 5, "001": 8, "010": 9, "011": 4, "100": 7, "101": 14,
                          "110": 5, "111": 12},
    ("sv", "general"): {"000": 5, "001": 1, "100": 52, "101": 5, "111": 1},
    ("sv", "ghz_mid"): {"000": 26, "111": 38},
    ("sv", "teleport"): {"000": 7, "001": 6, "010": 7, "011": 10, "100": 6, "101": 12,
                         "110": 7, "111": 9},
    ("sv", "permuted"): {"000": 12, "010": 18, "101": 17, "111": 17},
    ("dm", "bell"): {"00": 31, "11": 33},
    ("dm", "ghz3"): {"000": 31, "111": 33},
    ("dm", "qft3"): {"000": 5, "001": 8, "010": 9, "011": 4, "100": 7, "101": 14, "110": 5,
                     "111": 12},
    ("dm", "cliffordt"): {"000": 5, "001": 8, "010": 9, "011": 4, "100": 7, "101": 14,
                          "110": 5, "111": 12},
    ("dm", "general"): {"000": 5, "001": 1, "100": 52, "101": 5, "111": 1},
    ("dm", "ghz_mid"): {"000": 26, "111": 38},
    ("dm", "teleport"): {"000": 7, "001": 6, "010": 7, "011": 10, "100": 6, "101": 12,
                         "110": 7, "111": 9},
    ("dm", "gate_after_measure"): {"000": 12, "011": 17, "100": 18, "111": 17},
    ("stab", "bell"): {"00": 26, "11": 38},
    ("stab", "ghz3"): {"000": 26, "111": 38},
    ("stab", "clifford"): {"0000": 3, "0001": 3, "0010": 2, "0011": 3, "0100": 9, "0101": 6,
                           "0110": 5, "0111": 6, "1000": 5, "1001": 5, "1010": 3, "1011": 1,
                           "1100": 4, "1101": 3, "1110": 3, "1111": 3},
    ("stab", "clifford_measured"): {"1000": 26, "1100": 38},
    ("stab", "ghz_mid"): {"000": 26, "111": 38},
    ("stab", "teleport"): {"000": 9, "001": 10, "010": 8, "011": 8, "100": 7, "101": 8,
                           "110": 5, "111": 9},
    ("stab", "gate_after_measure"): {"000": 17, "011": 21, "100": 12, "111": 14},
    ("stab", "permuted"): {"000": 17, "010": 12, "101": 21, "111": 14},
}
PINNED_NOISY_QFT3 = {"00000": 5, "00001": 9, "00010": 9, "00011": 4, "00100": 7, "00101": 14,
                     "00110": 5, "00111": 11}


@pytest.fixture(scope="module")
def line5():
    return load_bundled_device("line5")


def circuit(name):
    return parse_qasm(CIRCUITS[name], source_name=name)


def tv_distance(a: dict, b: dict) -> float:
    na, nb = sum(a.values()), sum(b.values())
    return 0.5 * sum(abs(a.get(k, 0) / na - b.get(k, 0) / nb) for k in set(a) | set(b))


@pytest.mark.parametrize("backend, name", sorted(PINNED))
def test_seeded_counts_are_pinned(backend, name):
    assert RUNS[backend](circuit(name), seed=11, shots=64).counts == PINNED[backend, name]


def test_noisy_dm_seeded_counts_are_pinned(line5):
    physical, _ = transpile(circuit("qft3"), line5)
    assert dm_run(physical, device=line5, seed=11, shots=64).counts == PINNED_NOISY_QFT3


@pytest.mark.parametrize("name", ["teleport", "ghz_mid", "gate_after_measure", "reuse",
                                  "syndrome", "reset_entangled", "clbit_overwrite",
                                  "clifford_measured"])
def test_backends_agree_on_clifford_circuits(name):
    # distinct seeds, so that sv and dm do not share their random draws
    counts = {b: run(circuit(name), seed=seed, shots=1500).counts
              for seed, (b, run) in enumerate(RUNS.items())}
    for b in ("dm", "stab"):
        assert tv_distance(counts["sv"], counts[b]) < 0.1, (b, counts)


@pytest.mark.parametrize("name, source", corpus_sources())
def test_noiseless_dm_evolve_is_the_pure_state(name, source):
    c = parse_qasm(source, source_name=name)
    psi = sv_statevector(c)
    np.testing.assert_allclose(dm_evolve(c), np.outer(psi, psi.conj()), atol=1e-10)


def _embedded_statevector(c) -> np.ndarray:
    """|0...0> multiplied by one literal embedding per gate."""
    flat = flatten(c)
    offsets = flat.qubit_offsets()
    psi = np.zeros(1 << flat.n_qubits, dtype=complex)
    psi[0] = 1.0
    for instr in flat.instructions:
        if instr.opcode not in NON_UNITARY:
            wires = [offsets[r] + i for r, i in instr.qubits]
            psi = embed_slow(unitary_of(instr.opcode, instr.params), wires, flat.n_qubits) @ psi
    return psi


# random circuits whose two-qubit gates act in both wire orders
_BOTH_ORDERS = [(f"general_n{n}_s{seed}", random_general_qasm(n, 40, seed))
                for n, seed in ((4, 300), (5, 301), (6, 302))]


@pytest.mark.parametrize("name, source", corpus_sources() + _BOTH_ORDERS)
def test_statevector_matches_literal_embeddings(name, source):
    c = parse_qasm(source, source_name=name)
    np.testing.assert_allclose(sv_statevector(c), _embedded_statevector(c), atol=1e-10)


def test_random_circuits_use_both_wire_orders():
    for name, source in _BOTH_ORDERS:
        pairs = [i.qubits for i in flatten(parse_qasm(source)).instructions if len(i.qubits) == 2]
        assert {a[1] < b[1] for a, b in pairs} == {True, False}, name


# -- regressions ---------------------------------------------------------------

@pytest.mark.parametrize("backend", sorted(RUNS))
def test_reset_of_entangled_qubit_is_drawn_per_shot(backend):
    counts = RUNS[backend](circuit("reset_entangled"), seed=3, shots=2000).counts
    assert set(counts) == {"0", "1"}
    assert abs(counts["0"] - 1000) < 150


@pytest.mark.parametrize("backend", sorted(RUNS))
def test_last_measurement_into_a_clbit_wins(backend):
    assert RUNS[backend](circuit("clbit_overwrite"), shots=100).counts == {"0": 100}


@pytest.mark.parametrize("noisy", [False, True])
def test_dm_counts_do_not_grow_with_the_classical_register(noisy, line5):
    # the Bell pair in line5's basis, measured into a 40-bit register
    text = (HEADER + "qreg q[2];\ncreg c[40];\nrz(pi/2) q[0];\nsx q[0];\nrz(pi/2) q[0];\n"
            "cx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n")
    c = parse_qasm(text)
    device = line5 if noisy else None
    dm_run(c, device=device, shots=10)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        counts = dm_run(c, device=device, shots=1000).counts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    bell = {"0" * 40, "0" * 38 + "11"}
    assert all(len(k) == 40 and k[:38] == "0" * 38 for k in counts)
    assert sum(counts[k] for k in bell) > 900 if noisy else set(counts) == bell


def _transpiled_reuse(line5):
    physical, _ = transpile(circuit("reuse"), line5)
    return physical


def test_dm_with_device_runs_reset_without_fidelity(line5):
    result = dm_run(_transpiled_reuse(line5), device=line5, seed=2, shots=200)
    assert result.fidelity is None
    assert sum(result.counts.values()) == 200
    with pytest.raises(SimulationError, match="fidelity"):
        dm_run(_transpiled_reuse(line5), device=line5, shots=10, compute_fidelity=True)


def test_noisy_dm_run_flattens_once(line5, monkeypatch):
    import qflow.program

    physical, _ = transpile(circuit("qft3"), line5)
    flatten_calls = []

    def counting_flatten(c):
        flatten_calls.append(c)
        return flatten(c)

    monkeypatch.setattr(qflow.program, "flatten", counting_flatten)
    result = dm_run(physical, device=line5, seed=11, shots=64)
    assert result.fidelity is not None
    assert len(flatten_calls) == 1


def test_noisy_dm_builds_each_distinct_channel_once(line5, monkeypatch):
    import qflow.density

    built = []

    def counting_kraus(p, n_qubits=1):
        built.append(n_qubits)
        return depolarizing_kraus(p, n_qubits)

    monkeypatch.setattr(qflow.density, "depolarizing_kraus", counting_kraus)
    channel = qflow.density._DensityState._channel
    opcodes = []

    def recording_channel(self, op):
        opcodes.append(op.opcode)
        return channel(self, op)

    monkeypatch.setattr(qflow.density._DensityState, "_channel", recording_channel)
    text = (HEADER + "qreg q[2];\ncreg c[2];\nsx q[0];\nsx q[0];\nsx q[0];\ncx q[0],q[1];\n"
            "cx q[0],q[1];\nsx q[1];\nsx q[0];\nmeasure q -> c;\n")
    dm_run(parse_qasm(text), device=line5, shots=10)
    # sx on q[0], cx on (q[0], q[1]) and sx on q[1]
    assert sorted(built) == [1, 1, 2]
    # noise follows each original gate, so no fused run reaches a channel
    assert sorted(opcodes) == ["cx", "sx", "sx"]


def test_cli_simulates_reset_circuit_on_device_and_refuses_its_fidelity(tmp_path, capsys, line5):
    path = tmp_path / "reuse_line5.qasm"
    path.write_text(print_qasm(_transpiled_reuse(line5)))
    assert main(["simulate", "dm", str(path), "--device", "line5", "--shots", "50"]) == 0
    assert sum(json.loads(capsys.readouterr().out)["counts"].values()) == 50
    assert main(["fidelity", str(path), "--device", "line5"]) == 4
    assert "error: fidelity is unavailable" in capsys.readouterr().err


# -- qubit caps ------------------------------------------------------------------

@pytest.mark.parametrize("backend, env", [("sv", "QFLOW_QUBIT_CAP_SV"),
                                          ("dm", "QFLOW_QUBIT_CAP_DM")])
@pytest.mark.parametrize("value", ["twelve", "1.5", "-1"])
def test_bad_qubit_cap_variable_is_a_simulation_error(backend, env, value, monkeypatch,
                                                      tmp_path, capsys):
    monkeypatch.setenv(env, value)
    with pytest.raises(SimulationError, match=env):
        RUNS[backend](circuit("bell"), shots=10)
    path = tmp_path / "bell.qasm"
    path.write_text(bell_qasm())
    assert main(["simulate", backend, str(path)]) == 4
    assert env in capsys.readouterr().err


def test_qubit_cap_variable_and_explicit_cap(monkeypatch):
    monkeypatch.setenv("QFLOW_QUBIT_CAP_SV", "1")
    with pytest.raises(SimulationError, match="exceeds state-vector cap 1"):
        sv_run(circuit("bell"), shots=10)
    assert sum(sv_run(circuit("bell"), shots=10, qubit_cap=2).counts.values()) == 10


@pytest.mark.parametrize("backend", sorted(RUNS))
@pytest.mark.parametrize("seed, shots, message", [
    (-1, 10, "seed must be a non-negative integer, got -1"),
    (42, 1 << 63, r"shots must be in \[1, 9223372036854775807\], got 9223372036854775808"),
    (42, 0, "shots must be in"),
])
def test_bad_seed_or_shots_is_a_simulation_error(backend, seed, shots, message, tmp_path,
                                                  capsys):
    with pytest.raises(SimulationError, match=message):
        RUNS[backend](circuit("bell"), seed=seed, shots=shots)
    path = tmp_path / "bell.qasm"
    path.write_text(bell_qasm())
    args = ["simulate", backend, str(path), "--seed", str(seed), "--shots", str(shots)]
    assert main(args) == 4
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "error: seed must be"), ("--shots", str(1 << 63), "error: shots must be")])
def test_fidelity_refuses_bad_seed_or_shots(flag, value, message, tmp_path, capsys, line5):
    path = tmp_path / "bell_line5.qasm"
    path.write_text(print_qasm(transpile(circuit("bell"), line5)[0]))
    assert main(["fidelity", str(path), "--device", "line5"]) == 0
    capsys.readouterr()
    assert main(["fidelity", str(path), "--device", "line5", flag, value]) == 4
    assert capsys.readouterr().err.startswith(message)


# -- output schema -----------------------------------------------------------------

def test_run_results_match_schema(line5):
    schema = json.loads(SCHEMA.read_text())
    results = [sv_run(circuit("bell"), shots=20), sv_run(circuit("ghz_mid"), shots=20),
               dm_run(circuit("teleport"), shots=20), stab_run(circuit("syndrome"), shots=20),
               stab_run(circuit("clifford"), shots=20)]
    physical, _ = transpile(circuit("bell"), line5)
    results.append(dm_run(physical, device=line5, shots=20))
    assert results[0].amplitudes is not None and results[-1].fidelity is not None
    for result in results:
        jsonschema.validate(result.to_dict(include_timing=True, include_amplitudes=True), schema)
