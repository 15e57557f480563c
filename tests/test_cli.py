"""The command line: transpile, analyze and simulate output and the
manifests against their JSON schemas, format round trips and exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

from qflow.binio import decode_binary, encode_binary
from qflow.cli import main
from qflow.device import bundled_device_names, load_bundled_device
from qflow.flatten import flatten
from qflow.parser import parse_qasm
from qflow.printer import print_qasm
from qflow.transpile import transpile

from conftest import corpus_sources, ghz_qasm, qft_qasm, random_general_qasm

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"
DEVICE_FILES = Path(__file__).resolve().parent.parent / "src" / "qflow" / "devices"


def schema(name: str) -> dict:
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def write_source(tmp_path, text: str, name: str = "in.qasm") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.mark.parametrize("device", bundled_device_names())
@pytest.mark.parametrize("suffix", [".qasm", ".nwqb"])
def test_transpile_writes_circuit_and_schema_valid_report(tmp_path, capsys, device, suffix):
    src = write_source(tmp_path, random_general_qasm(4, 30, seed=7))
    out = tmp_path / f"out{suffix}"
    assert main(["transpile", str(src), "--device", device, "-o", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, schema("transpile_report"))
    if suffix == ".qasm":
        physical = parse_qasm(out.read_text())
    else:
        physical = decode_binary(out.read_bytes())
    dev = load_bundled_device(device)
    allowed = set(dev.basis_gates) | {"measure", "barrier", "reset", "delay"}
    assert {i.opcode for i in physical.instructions} <= allowed
    assert physical.n_qubits == dev.num_qubits
    n_2q = sum(1 for i in physical.instructions if len(i.qubits) == 2)
    assert n_2q == report["n_2q"]


def test_transpiled_outputs_in_both_formats_agree(tmp_path, capsys):
    src = write_source(tmp_path, qft_qasm(4))
    text_out, blob_out = tmp_path / "out.qasm", tmp_path / "out.nwqb"
    reports = []
    for out in (text_out, blob_out):
        assert main(["transpile", str(src), "--device", "grid9", "-o", str(out)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert decode_binary(blob_out.read_bytes()) == flatten(parse_qasm(text_out.read_text()))


def test_convert_round_trip(tmp_path, capsys):
    src = write_source(tmp_path, random_general_qasm(3, 25, seed=3)
                       + "creg c[3];\nmeasure q -> c;\nif(c==5) x q[1];\n")
    blob, text = tmp_path / "c.nwqb", tmp_path / "back.qasm"
    assert main(["convert", str(src), str(blob)]) == 0
    assert main(["convert", str(blob), str(text)]) == 0
    assert "size change" in capsys.readouterr().out
    flat = flatten(parse_qasm(src.read_text()))
    assert decode_binary(blob.read_bytes()) == flat
    assert parse_qasm(text.read_text()) == parse_qasm(print_qasm(flat))
    assert encode_binary(parse_qasm(text.read_text())) == blob.read_bytes()


@pytest.mark.parametrize("name, source", corpus_sources())
def test_analyze_report_matches_schema(tmp_path, capsys, name, source):
    src = write_source(tmp_path, source, f"{name}.qasm")
    assert main(["analyze", str(src)]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, schema("metrics_report"))
    assert report["n_qubits"] == flatten(parse_qasm(source)).n_qubits


@pytest.mark.parametrize("backend, source, device", [
    ("sv", qft_qasm(3), None),
    ("sv", ghz_qasm(3, measure=True), None),
    ("dm", qft_qasm(3), None),
    ("dm", print_qasm(transpile(parse_qasm(ghz_qasm(3, measure=True)),
                                load_bundled_device("line5"))[0]), "line5"),
    ("stab", ghz_qasm(4, measure=True), None),
])
def test_simulate_output_matches_schema(tmp_path, capsys, backend, source, device):
    src = write_source(tmp_path, source)
    args = ["simulate", backend, str(src), "--shots", "50", "--timing", "--amplitudes"]
    assert main(args + (["--device", device] if device else [])) == 0
    result = json.loads(capsys.readouterr().out)
    jsonschema.validate(result, schema("run_result"))
    assert sum(result["counts"].values()) == 50
    assert ("fidelity" in result) == (device is not None)


@pytest.mark.parametrize("device", bundled_device_names())
def test_devices_summarizes_a_schema_valid_file(capsys, device):
    raw = json.loads((DEVICE_FILES / f"{device}.json").read_text())
    jsonschema.validate(raw, schema("device"))
    assert main(["devices", device]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["device:", raw["name"]]
    assert lines[1].split() == ["qubits:", str(raw["num_qubits"])]
    assert lines[2] == "basis gates: " + ", ".join(raw["basis_gates"])
    edges = {tuple(sorted(pair)) for pair in raw["coupling_map"]}
    assert lines[4].split()[1:] == [f"{a}-{b}" for a, b in sorted(edges)]
    assert len(lines) == 6 + raw["num_qubits"]


def test_gates_manifest_matches_schema(capsys):
    assert main(["gates"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    jsonschema.validate(manifest, schema("gate_manifest"))
    assert {"cx", "u3", "h"} <= {g["name"] for g in manifest}


def test_exit_1_on_bad_qasm(tmp_path, capsys):
    src = write_source(tmp_path, "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n")
    assert main(["transpile", str(src), "--device", "line5", "-o", str(tmp_path / "o.qasm")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_1_on_truncated_container(tmp_path, capsys):
    blob = encode_binary(parse_qasm(qft_qasm(3)))
    path = tmp_path / "cut.nwqb"
    path.write_bytes(blob[:-5])
    out = str(tmp_path / "o.qasm")
    assert main(["transpile", str(path), "--device", "line5", "-o", out]) == 1
    assert "truncated stream" in capsys.readouterr().err
    assert main(["convert", str(path), out]) == 1


def test_exit_2_on_unknown_device(tmp_path, capsys):
    src = write_source(tmp_path, qft_qasm(3))
    assert main(["transpile", str(src), "--device", "nosuch", "-o", str(tmp_path / "o.qasm")]) == 2
    assert "no bundled device 'nosuch'" in capsys.readouterr().err
    assert main(["devices", "nosuch"]) == 2


def test_exit_3_on_too_many_qubits(tmp_path, capsys):
    src = write_source(tmp_path, qft_qasm(6))
    assert main(["transpile", str(src), "--device", "line5", "-o", str(tmp_path / "o.qasm")]) == 3
    assert "too many qubits" in capsys.readouterr().err
