"""Command-line interface.

Subcommands: transpile, simulate, analyze, convert, fidelity, devices,
gates. Data goes to standard output (or --out), diagnostics to standard
error as one ``error: <message>`` line. A device whose coupling graph is not
connected adds one ``warning: <message>`` line as it loads, whatever the
exit code. Exit codes: 0 success, 1 circuit parse/decode error, 2 device
configuration error, 3 transpile error, 4 simulator rejection, 5 usage
error (an unknown command or option, a missing or invalid argument);
``--help`` prints the usage and exits 0.

One rule gives the code. A circuit that cannot be loaded ends the command
with 1, a device that cannot be loaded with 2; either includes a file that
cannot be read (missing, a directory, not UTF-8). What the work then raises
maps through ``_EXIT_CODES``, first match wins: an output file that cannot
be written is 1, and a device that loaded but lacks what the run needs (a
gate with no duration) is 4. No input file, device file or output path
makes ``main`` print a traceback.

``convert`` writes the circuit as ``parse_qasm`` or ``decode_binary`` reads
it: a flat program, whatever the format. QASM text comes out with its gate
calls and register-wide statements expanded, and with no include, gate
definition or opaque declaration.

Every invocation is deterministic for fixed inputs, flags, and seed; the
wall-clock field is only included with --timing so default output is
byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import NoReturn

from .binio import decode_binary, encode_binary
from .circuit import Circuit
from .density import _program, dm_run
from .device import DeviceConfig, load_bundled_device, load_device
from .errors import DeviceConfigError, QasmError, QFlowError, SimulationError, TranspileError
from .gates import gate_manifest
from .metrics import analyze
from .parser import parse_qasm
from .printer import print_qasm
from .statevector import sv_run
from .stabilizer import stab_run
from .transpile import transpile

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DEVICE = 2
EXIT_TRANSPILE = 3
EXIT_BACKEND = 4
EXIT_USAGE = 5

# what the work after loading raises, first match wins
_EXIT_CODES = (
    (TranspileError, EXIT_TRANSPILE),
    (SimulationError, EXIT_BACKEND),
    (DeviceConfigError, EXIT_BACKEND),  # a loaded device without a gate's duration
    (QFlowError, EXIT_PARSE),
    (OSError, EXIT_PARSE),  # an output that cannot be written
)
_LOAD_ERRORS = (QFlowError, OSError, UnicodeDecodeError)


class _LoadFailed(Exception):
    """An input that could not be loaded, with its exit code; a decode error gains the path."""

    def __init__(self, code: int, exc: Exception, path: str):
        super().__init__(f"{path}: {exc}" if isinstance(exc, UnicodeDecodeError) else str(exc))
        self.code = code


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_circuit(path: str) -> Circuit:
    try:
        if not os.path.exists(path):
            raise QasmError(f"input file not found: {path}")
        if path.endswith(".nwqb"):
            with open(path, "rb") as fh:
                return decode_binary(fh.read())
        if path.endswith(".qasm"):
            with open(path, "r", encoding="utf-8") as fh:
                return parse_qasm(fh.read())
        raise QasmError(f"unrecognized circuit extension (want .qasm or .nwqb): {path}")
    except _LOAD_ERRORS as exc:
        raise _LoadFailed(EXIT_PARSE, exc, path) from None


def _write_circuit(circuit: Circuit, path: str):
    if path.endswith(".nwqb"):
        with open(path, "wb") as fh:
            fh.write(encode_binary(circuit))
    elif path.endswith(".qasm"):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(print_qasm(circuit))
    else:
        raise QasmError(f"unrecognized output extension (want .qasm or .nwqb): {path}")


def _load_device_arg(spec: str) -> DeviceConfig:
    try:
        # a warning (a coupling graph that is not connected) becomes one
        # "warning:" line, not the warnings module's two
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if os.path.exists(spec):
                with open(spec, "r", encoding="utf-8") as fh:
                    device = load_device(fh.read())
            elif spec.endswith(".json"):
                raise DeviceConfigError(f"device file not found: {spec}")
            else:
                device = load_bundled_device(spec)
    except _LOAD_ERRORS as exc:
        raise _LoadFailed(EXIT_DEVICE, exc, spec) from None
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return device


def _histogram_text(counts: dict, shots: int, width: int = 40) -> str:
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    peak = ranked[0][1] if ranked else 1
    lines = []
    for bits, count in ranked:
        bar = "#" * max(1, round(width * count / peak))
        lines.append(f"{bits}  {bar:<{width}}  {count} ({100.0 * count / shots:.1f}%)")
    return "\n".join(lines) + "\n"


# -- subcommands ---------------------------------------------------------------

def _cmd_transpile(args) -> int:
    circuit = _load_circuit(args.input)
    device = _load_device_arg(args.device)
    physical, report = transpile(circuit, device, seed=args.seed, opt_level=args.opt_level)
    _write_circuit(physical, args.out)
    sys.stdout.write(_json_text(report.to_dict()))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    circuit = _load_circuit(args.input)
    device = _load_device_arg(args.device) if args.device else None
    if args.backend == "sv":
        result = sv_run(circuit, seed=args.seed, shots=args.shots)
    elif args.backend == "dm":
        result = dm_run(circuit, device, seed=args.seed, shots=args.shots)
    else:
        result = stab_run(circuit, seed=args.seed, shots=args.shots)
    payload = result.to_dict(
        include_timing=args.timing, include_amplitudes=args.amplitudes
    )
    _emit(_json_text(payload), args.out)
    if args.histogram:
        sys.stdout.write(_histogram_text(result.counts, result.shots))
    return EXIT_OK


def _cmd_convert(args) -> int:
    _write_circuit(_load_circuit(args.input), args.out)
    in_size = os.path.getsize(args.input)
    out_size = os.path.getsize(args.out)
    delta = 100.0 * (out_size - in_size) / in_size if in_size else 0.0
    print(
        f"{args.input} ({in_size} bytes) -> {args.out} ({out_size} bytes), "
        f"{delta:+.1f}% size change"
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    report = analyze(_load_circuit(args.input))
    sys.stdout.write(_json_text(report.to_dict()))
    return EXIT_OK


def _cmd_fidelity(args) -> int:
    circuit = _load_circuit(args.input)
    device = _load_device_arg(args.device)
    # refused after dm_run's own checks, before its walk
    if not _program(circuit, device, args.shots, args.seed).unitary:
        raise SimulationError("fidelity is unavailable for circuits with reset, classical "
                              "conditions or mid-circuit measurement")
    result = dm_run(circuit, device, seed=args.seed, shots=args.shots)
    sys.stdout.write(_json_text({"fidelity": result.fidelity}))
    return EXIT_OK


def _cmd_devices(args) -> int:
    device = _load_device_arg(args.device)
    topo = device.topology()
    undirected = sorted({(min(a, b), max(a, b)) for a, b in device.coupling_map})
    lines = [
        f"device:      {device.name}",
        f"qubits:      {device.num_qubits}",
        f"basis gates: {', '.join(device.basis_gates)}",
        f"cycle time:  {device.cycle_time_ns} ns",
        f"edges:       {' '.join(f'{a}-{b}' for a, b in undirected)}",
        "adjacency:",
    ]
    for q in range(device.num_qubits):
        neighbors = " ".join(str(v) for v in topo.adjacency[q])
        lines.append(f"  {q}: {neighbors}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_gates(_args) -> int:
    sys.stdout.write(_json_text(gate_manifest()))
    return EXIT_OK


class _UsageError(Exception):
    """A command line that the argument parser refuses."""


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach ``main`` as a
    :class:`_UsageError` (argparse would print the usage and exit 2, the
    device error's code)."""

    def error(self, message: str) -> NoReturn:
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qflow",
        description="Quantum circuit toolchain: parse, transpile, simulate, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transpile", help="compile a circuit for a device")
    p.add_argument("input", help="input circuit (.qasm or .nwqb)")
    p.add_argument("--device", required=True, help="device JSON path or bundled name")
    p.add_argument("-o", "--out", required=True, help="output circuit (.qasm or .nwqb)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--opt-level", type=int, choices=(0, 1), default=1)
    p.set_defaults(func=_cmd_transpile)

    p = sub.add_parser("simulate", help="run a circuit on a simulator backend")
    p.add_argument("backend", choices=("sv", "dm", "stab"))
    p.add_argument("input")
    p.add_argument("--device", help="device JSON (dm backend: enables noise + fidelity)")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", help="write the result JSON here instead of stdout")
    p.add_argument("--histogram", action="store_true",
                   help="print a text histogram ranked by frequency")
    p.add_argument("--amplitudes", action="store_true",
                   help="include final amplitudes in the JSON (sv, single pass)")
    p.add_argument("--timing", action="store_true",
                   help="include wall_time_ms (breaks byte-for-byte determinism)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("convert", help="convert between .qasm and .nwqb")
    p.add_argument("input")
    p.add_argument("out")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("analyze", help="circuit statistics report")
    p.add_argument("input")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fidelity", help="noisy-vs-ideal state fidelity on a device")
    p.add_argument("input")
    p.add_argument("--device", required=True)
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("devices", help="summarize a device configuration")
    p.add_argument("device", help="device JSON path or bundled name")
    p.set_defaults(func=_cmd_devices)

    p = sub.add_parser("gates", help="emit the builtin gate manifest")
    p.set_defaults(func=_cmd_gates)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        return args.func(args)
    except _LoadFailed as exc:
        return _fail(exc.code, str(exc))
    except (QFlowError, OSError) as exc:
        return _fail(next(code for kind, code in _EXIT_CODES if isinstance(exc, kind)), str(exc))


if __name__ == "__main__":
    sys.exit(main())
