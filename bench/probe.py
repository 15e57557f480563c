"""Set-up probe, run in a fresh interpreter from the repository root:
import qflow from ./src, load every bundled device and finish one tiny job.
The benchmark times this whole process as ``setup_s``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import qflow  # noqa: E402

BELL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""

devices = {name: qflow.load_bundled_device(name) for name in qflow.bundled_device_names()}
physical, _ = qflow.transpile(qflow.parse_qasm(BELL), devices["line5"])
counts = qflow.sv_run(physical, seed=1, shots=64).counts
if set(counts) - {"00", "11"} or sum(counts.values()) != 64:
    sys.exit(f"probe job gave wrong counts {counts}")
