"""The command line: transpile, analyze and simulate output and the
manifests against their JSON schemas, format round trips and exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.binio import decode_binary, encode_binary
from qflow.cli import main
from qflow.device import bundled_device_names, load_bundled_device
from qflow.metrics import MetricsReport
from qflow.parser import parse_qasm
from qflow.printer import print_qasm
from qflow.transpile import TranspileReport, transpile

from conftest import bell_qasm, corpus_sources, ghz_qasm, qft_qasm, random_general_qasm

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
    assert decode_binary(blob_out.read_bytes()) == parse_qasm(text_out.read_text())


def test_convert_round_trip(tmp_path, capsys):
    src = write_source(tmp_path, random_general_qasm(3, 25, seed=3)
                       + "creg c[3];\nmeasure q -> c;\nif(c==5) x q[1];\n")
    blob, text = tmp_path / "c.nwqb", tmp_path / "back.qasm"
    assert main(["convert", str(src), str(blob)]) == 0
    assert main(["convert", str(blob), str(text)]) == 0
    assert "size change" in capsys.readouterr().out
    flat = parse_qasm(src.read_text())
    assert decode_binary(blob.read_bytes()) == flat
    assert parse_qasm(text.read_text()) == parse_qasm(print_qasm(flat))
    assert encode_binary(parse_qasm(text.read_text())) == blob.read_bytes()


@pytest.mark.parametrize("name, source", corpus_sources())
def test_analyze_report_matches_schema(tmp_path, capsys, name, source):
    src = write_source(tmp_path, source, f"{name}.qasm")
    assert main(["analyze", str(src)]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, schema("metrics_report"))
    assert report["n_qubits"] == parse_qasm(source).n_qubits


@pytest.mark.parametrize("command, report_type", [
    (["transpile", "--device", "grid9"], TranspileReport), (["analyze"], MetricsReport)])
def test_reports_print_their_keys_in_field_order(tmp_path, capsys, command, report_type):
    src = write_source(tmp_path, qft_qasm(4) + "creg c[4];\nmeasure q -> c;\n")
    out = ["-o", str(tmp_path / "out.qasm")] if command[0] == "transpile" else []
    assert main([command[0], str(src), *command[1:], *out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [f.name for f in dataclasses.fields(report_type)]
    assert list(report["basis_histogram"]) == sorted(report["basis_histogram"])
    assert len(report["basis_histogram"]) > 1


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


# -- the exit-code contract ----------------------------------------------------

_BELL = bell_qasm()
_LINE5 = json.loads((DEVICE_FILES / "line5.json").read_text())
_NO_DURATION_FOR_H = "error: device 'line5' has no duration entry for gate 'h'"
_NOSUCH = "error: no bundled device 'nosuch' (available: alltoall11, grid9, heavyhex7, line5)"
_BAD_QASM = "error: line 3, col 1: gate 'cx' acts on 2 qubit(s), got 1"
_CUT = "error: truncated stream: operand register index at byte 61"
_WIDE = "error: line 3, col 8: register 'c' must have size <= 16777216"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A working directory holding the inputs the exit-code cases name."""
    monkeypatch.chdir(tmp_path)
    files = {
        "bell.qasm": _BELL,
        "bell.txt": _BELL,
        "t.qasm": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\nt q[0];\n'
                  "measure q -> c;\n",
        "bad.qasm": "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n",
        "big.qasm": qft_qasm(6),
        # angles the rule accepts whose sums overflow a double
        "huge.qasm": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
                     "u3(0,1.7e308,1.7e308) q[0];\nu2(1.7e308,1.7e308) q[1];\n"
                     "cu3(0.5,1e308,1.7e308) q[0],q[1];\nmeasure q -> c;\n",
        # an if mask of 2**70 bits would not fit in an int
        "wide.qasm": "OPENQASM 2.0;\nqreg q[1];\ncreg c[1180591620717411303424];\nif(c==1) x q[0];\n",
    }
    for name, text in files.items():
        write_source(tmp_path, text, name)
    blob = encode_binary(parse_qasm(_BELL))
    (tmp_path / "bell.nwqb").write_bytes(blob)
    (tmp_path / "cut.nwqb").write_bytes(blob[:-5])
    iswap = dict(_LINE5, basis_gates=_LINE5["basis_gates"] + ["iswap"],
                 gate_durations_ns=dict(_LINE5["gate_durations_ns"], iswap=100.0))
    (tmp_path / "iswap.json").write_text(json.dumps(iswap))
    return tmp_path


# (argv, exit code, the one stderr line or None on success)
_EXIT_CASES = [
    ("transpile bell.qasm --device line5 -o o.qasm", 0, None),
    ("transpile bell.nwqb --device grid9 -o o.nwqb", 0, None),
    ("transpile bad.qasm --device line5 -o o.qasm", 1, _BAD_QASM),
    ("transpile missing.qasm --device line5 -o o.qasm", 1,
     "error: input file not found: missing.qasm"),
    ("transpile cut.nwqb --device line5 -o o.qasm", 1, _CUT),
    ("transpile bell.txt --device line5 -o o.qasm", 1,
     "error: unrecognized circuit extension (want .qasm or .nwqb): bell.txt"),
    ("transpile bell.qasm --device line5 -o o.txt", 1,
     "error: unrecognized output extension (want .qasm or .nwqb): o.txt"),
    ("transpile bell.qasm --device iswap.json -o o.qasm", 1,
     "error: basis gate 'iswap' is not in the gate library"),
    ("transpile bell.qasm --device nosuch -o o.qasm", 2, _NOSUCH),
    ("transpile bell.qasm --device missing.json -o o.qasm", 2,
     "error: device file not found: missing.json"),
    ("transpile huge.qasm --device line5 -o o.qasm", 0, None),
    ("transpile huge.qasm --device grid9 -o o.nwqb", 0, None),
    ("transpile big.qasm --device line5 -o o.qasm", 3,
     "error: too many qubits: circuit has 6, device 'line5' has 5"),
    ("simulate sv bell.qasm --shots 64 --histogram", 0, None),
    ("simulate dm bell.qasm --shots 64", 0, None),
    ("simulate stab bell.nwqb --shots 64 --out r.json", 0, None),
    ("simulate sv huge.qasm", 0, None),
    ("simulate dm huge.qasm --shots 64", 0, None),
    ("simulate sv bad.qasm", 1, _BAD_QASM),
    ("simulate dm bell.qasm --device nosuch", 2, _NOSUCH),
    ("simulate sv bell.qasm --seed -1", 4,
     "error: seed must be a non-negative integer, got -1"),
    ("simulate stab t.qasm", 4, "error: non-Clifford gate 't'"),
    ("simulate dm bell.qasm --device line5", 4, _NO_DURATION_FOR_H),
    ("fidelity bad.qasm --device line5", 1, _BAD_QASM),
    ("fidelity bell.qasm --device nosuch", 2, _NOSUCH),
    ("fidelity bell.qasm --device line5", 4, _NO_DURATION_FOR_H),
    ("analyze bell.nwqb", 0, None),
    ("analyze bad.qasm", 1, _BAD_QASM),
    ("analyze wide.qasm", 1, _WIDE),
    ("simulate sv wide.qasm", 1, _WIDE),
    ("convert bell.qasm c.nwqb", 0, None),
    ("convert bad.qasm c.nwqb", 1, _BAD_QASM),
    ("convert cut.nwqb c.qasm", 1, _CUT),
    ("convert bell.qasm c.txt", 1,
     "error: unrecognized output extension (want .qasm or .nwqb): c.txt"),
    ("devices iswap.json", 0, None),
    ("devices missing.json", 2, "error: device file not found: missing.json"),
    ("devices nosuch", 2, _NOSUCH),
    ("gates", 0, None),
    ("simulate sv", 5, "error: qflow simulate: the following arguments are required: input"),
    ("frob bell.qasm", 5, "error: qflow: argument command: invalid choice: 'frob' (choose from "
     "'transpile', 'simulate', 'convert', 'analyze', 'fidelity', 'devices', 'gates')"),
    ("analyze bell.qasm --shots 5", 5, "error: qflow: unrecognized arguments: --shots 5"),
    ("simulate sv bell.qasm --shots many", 5,
     "error: qflow simulate: argument --shots: invalid int value: 'many'"),
]


@pytest.mark.parametrize("argv, code, message", _EXIT_CASES, ids=[c[0] for c in _EXIT_CASES])
def test_exit_code_and_message(workdir, capsys, argv, code, message):
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    if message is None:
        assert err == ""
    else:
        assert (out, err) == ("", message + "\n")


@pytest.mark.parametrize("argv", ["--help", "simulate --help"])
def test_help_exits_zero_with_the_usage(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: qflow") and err == ""


def _strict_json(text: str):
    """JSON as the standard defines it: no Infinity, -Infinity or NaN."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("exponent, code, makespan", [
    (305, 0, 1e308), (306, 3, None),
], ids=["1e308 ns", "1e309 ns"])
def test_a_schedule_that_overflows_a_double_is_a_transpile_error(tmp_path, capsys, exponent,
                                                                 code, makespan):
    """alltoall11's cycle is 1000 ns, so a delay of 10**306 cycles takes
    1e309 ns, more than a double holds; the report would print Infinity."""
    src = write_source(tmp_path, f"OPENQASM 2.0;\nqreg q[1];\ndelay q[0], {10 ** exponent};\n"
                                 "x q[0];\n")
    out_path = tmp_path / "o.qasm"
    assert main(["transpile", str(src), "--device", "alltoall11", "-o", str(out_path)]) == code
    out, err = capsys.readouterr()
    if makespan is None:
        assert (out, err) == ("", "error: schedule makespan overflows a double (over 1.8e308 ns)\n")
        assert not out_path.exists()
    else:
        assert err == ""
        assert _strict_json(out)["makespan_ns"] == makespan


_SPLIT = "warning: device 'split5': coupling graph is not connected"


@pytest.mark.parametrize("argv, code, stderr", [
    ("devices split.json", 0, [_SPLIT]),
    ("transpile bell.qasm --device split.json -o o.qasm", 0, [_SPLIT]),
    ("transpile big.qasm --device split.json -o o.qasm", 3,
     [_SPLIT, "error: too many qubits: circuit has 6, device 'split5' has 5"]),
])
def test_a_disconnected_device_adds_one_warning_line(workdir, capsys, argv, code, stderr):
    split = dict(_LINE5, name="split5", coupling_map=[[0, 1], [1, 2], [3, 4]])
    (workdir / "split.json").write_text(json.dumps(split))
    assert main(argv.split()) == code
    assert capsys.readouterr().err.splitlines() == stderr


def _spoil(path: Path):
    """Make a file that exists undecodable as UTF-8, or a directory of a new name."""
    if path.exists():
        path.write_bytes(path.read_bytes() + b"// caf\xe9\n")
    else:
        path.mkdir()


# the inputs and outputs that once escaped main as a Python exception; the
# file named by ``spoil`` is made unreadable first
@pytest.mark.parametrize("spoil, argv, code", [
    ("bell.qasm", "simulate sv bell.qasm", 1),
    ("dir.qasm", "analyze dir.qasm", 1),
    ("dir", "simulate dm bell.qasm --device dir", 2),
    ("iswap.json", "fidelity bell.qasm --device iswap.json", 2),
    (None, "transpile bell.qasm --device line5 -o nodir/o.qasm", 1),
    (None, "simulate sv bell.qasm --out nodir/r.json", 1),
    (None, "convert bell.qasm nodir/c.nwqb", 1),
    (None, "devices line5.json/x", 2),
])
def test_a_file_that_cannot_be_read_or_written_is_one_error_line(workdir, capsys, spoil, argv,
                                                                  code):
    if spoil is not None:
        _spoil(workdir / spoil)
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if spoil is not None and (workdir / spoil).is_file():  # the non-UTF-8 file is named
        assert f"error: {spoil}: 'utf-8' codec can't decode" in err


# -- mutated input files -------------------------------------------------------

# a Bell pair compiled for line5, so that every command (fidelity and noisy
# dm included) succeeds on the unmutated files
_ROUTED = print_qasm(transpile(parse_qasm(_BELL), load_bundled_device("line5"))[0])
_SEED_FILES = {
    "in.qasm": _ROUTED.encode(),
    "in.nwqb": encode_binary(parse_qasm(_ROUTED)),
    "dev.json": (DEVICE_FILES / "line5.json").read_bytes(),
}
# {f} is the mutated file, {d} the directory that holds it and good.qasm
_CIRCUIT_COMMANDS = [
    "transpile {f} --device line5 -o {d}/out.qasm",
    "transpile {f} --device grid9 -o {d}/out.nwqb --opt-level 0",
    "simulate sv {f} --shots 16 --histogram",
    "simulate dm {f} --shots 16 --device line5",
    "simulate stab {f} --shots 16",
    "fidelity {f} --device line5 --shots 16",
    "analyze {f}",
    "convert {f} {d}/out.qasm",
    "convert {f} {d}/out.nwqb",
]
_DEVICE_COMMANDS = [
    "devices {f}",
    "transpile {d}/good.qasm --device {f} -o {d}/out.qasm",
    "simulate dm {d}/good.qasm --device {f} --shots 16",
    "fidelity {d}/good.qasm --device {f} --shots 16",
]
_BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(("flip", "insert", "delete", "truncate")), st.integers(0, 10_000),
              st.integers(0, 255)),
    min_size=1, max_size=3,
)


def _mutate(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for kind, pos, value in edits:
        if kind == "insert":
            data.insert(pos % (len(data) + 1), value)
        elif kind == "truncate":
            del data[pos % (len(data) + 1):]
        elif data:
            pos %= len(data)
            if kind == "flip":
                data[pos] ^= value or 1
            else:
                del data[pos]
    return bytes(data)


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    """A directory holding good.qasm, with the simulators' qubit caps lowered
    so that a mutated register size stays cheap."""
    workdir = tmp_path_factory.mktemp("mutated")
    (workdir / "good.qasm").write_text(_ROUTED)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("QFLOW_QUBIT_CAP_SV", "10")
        patch.setenv("QFLOW_QUBIT_CAP_DM", "6")
        yield workdir


@given(name=st.sampled_from(sorted(_SEED_FILES)), edits=_BYTE_EDITS, pick=st.integers(0, 99))
@settings(max_examples=200, deadline=None)
def test_main_on_a_mutated_file_exits_with_a_code_and_one_error_line(mutation_dir, name, edits,
                                                                      pick):
    """Byte edits and truncations (non-UTF-8 bytes included) of a QASM file,
    an NWQB blob or a bundled device file, run through valid argv: main
    returns 0-4, and on a nonzero code writes exactly one ``error:`` line."""
    (mutation_dir / name).write_bytes(_mutate(_SEED_FILES[name], edits))
    commands = _DEVICE_COMMANDS if name == "dev.json" else _CIRCUIT_COMMANDS
    argv = [word.format(f=mutation_dir / name, d=mutation_dir)
            for word in commands[pick % len(commands)].split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), argv
    if code:
        # a mutated device file may load with a coupling graph that is not
        # connected, which puts its one warning line first
        text = err.getvalue()
        if text.startswith("warning: device "):
            text = text.split("\n", 1)[1]
        assert text.startswith("error: ") and text.count("\n") == 1, argv
