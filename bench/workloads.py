"""Workload mixes, the job runner and the per-job checks.

A workload is a pool of distinct jobs built from the seed. Each job takes
QASM text in and gives a result out, as one CLI call does. Every pool has
the same sizes and depths whatever the seed (log-spaced over their ranges
and paired in a fixed order), so that its costs and latency quantiles hardly
move with the seed; the seed draws the gates, the angles and the job order.
Pools are interleaved so that any prefix of a pass is a balanced sample.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

import circuits as gen
import reference as ref

DEVICE_SIZES = {"line5": 5, "heavyhex7": 7, "grid9": 9, "alltoall11": 11}
KNOWN_DEFECTS = ("router-stuck", "dm-reset-with-device", "stab-reset-fast-path")


@dataclass
class Job:
    kind: str        # compile | sv | dm | dm_noisy | stab
    label: str
    qasm: str
    shots: int = 0
    device: str | None = None
    opt_level: int = 1


def _log_steps(k: int, lo: float, hi: float, stride: int = 1) -> list[int]:
    """k values log-spaced over [lo, hi), the midpoints of k equal strata,
    taken in the order 0, stride, 2*stride, ... (mod k). A stride coprime
    to k pairs them with a rising list of sizes so that small and large
    values go to both small and large sizes, the same way for every seed."""
    vals = [int(lo * (hi / lo) ** ((i + 0.5) / k)) for i in range(k)]
    return [vals[(i * stride) % k] for i in range(k)]


def _interleave(groups: list[list[Job]]) -> list[Job]:
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


def compile_pool(rng) -> list[Job]:
    groups = []
    for dev, size in DEVICE_SIZES.items():
        for opt in (0, 1):
            top = min(9, size)
            jobs = [Job("compile", f"general{4 + k * (top - 4) // 11}x{depth}",
                        gen.random_general(rng, 4 + k * (top - 4) // 11, depth),
                        device=dev, opt_level=opt)
                    for k, depth in enumerate(_log_steps(12, 100, 2000, stride=5))]
            n = rng.randint(5, min(11, size))
            jobs.append(Job("compile", f"qft{n}", gen.qft(rng, n, measure=False),
                            device=dev, opt_level=opt))
            n = rng.randint(3, size)
            jobs.append(Job("compile", f"ghz{n}", gen.ghz(n), device=dev, opt_level=opt))
            rng.shuffle(jobs)
            groups.append(jobs)
    return _interleave(groups)


def dense_pool(rng) -> list[Job]:
    """Three independent sets, so that about ten distinct jobs lie beyond
    the 90th latency percentile."""
    return _interleave([_dense_set(rng) for _ in range(3)])


def _dense_set(rng) -> list[Job]:
    sv_qft = [Job("sv", f"qft{n}", gen.qft(rng, n), 1024) for n in range(10, 17)]
    sv_general = [Job("sv", f"general{n}", gen.random_general(rng, n, d, measure=True), 1024)
                  for n, d in zip([n for n in range(10, 17) for _ in (0, 1)],
                                  _log_steps(14, 50, 200, stride=3))]
    dm = [Job("dm", f"qft{n}", gen.qft(rng, n), 1024) for n in range(5, 9)]
    dm += [Job("dm", f"general{n}", gen.random_general(rng, n, d, measure=True), 1024)
           for n, d in zip(range(5, 9), _log_steps(4, 40, 120, stride=3))]
    noisy = []
    for dev in ("line5", "heavyhex7"):
        size = DEVICE_SIZES[dev]
        for n in (size - 1, size):
            noisy.append(Job("dm_noisy", f"qft{n}", gen.qft(rng, n, measure=False), 1024,
                             device=dev))
        noisy.append(Job("dm_noisy", f"reuse4-{dev}",
                         gen.qubit_reuse(rng, 4, clifford=False, measure=False), 1024, device=dev))
    for g in (sv_qft, sv_general, dm, noisy):
        rng.shuffle(g)
    return _interleave([sv_qft, sv_general, dm, noisy])


def shots_pool(rng) -> list[Job]:
    sv = [Job("sv", "teleport3", gen.teleport(rng, 1), 256),
          Job("sv", "teleport5", gen.teleport(rng, 2), 256),
          Job("sv", "syndrome5", gen.syndrome_rounds(rng, 3, 2, clifford=False), 128)]
    sv += [Job("sv", f"ghzmid{n}", gen.ghz(n, mid=True), 256) for n in (6, 9)]
    dm = [Job("dm", "teleport3", gen.teleport(rng, 1), 64),
          Job("dm", "syndrome5", gen.syndrome_rounds(rng, 3, 2, clifford=False), 32),
          Job("dm", "ghzmid5", gen.ghz(5, mid=True), 64)]
    noisy = [Job("dm_noisy", f"ghz{n}", gen.ghz(n), shots, device=dev)
             for dev, n, shots in (("line5", 4, 12), ("line5", 5, 12),
                                   ("heavyhex7", 5, 4), ("heavyhex7", 7, 4))]
    stab = [Job("stab", f"clifford{n}", gen.random_clifford(rng, n, 4 * n), 64)
            for n in _log_steps(4, 20, 61)]
    stab += [Job("stab", f"syndrome{2 * d - 1}", gen.syndrome_rounds(rng, d, 3, clifford=True), 128)
             for d in (3, 5)]
    stab += [Job("stab", f"reuse{n}", gen.qubit_reuse(rng, n), 512) for n in (3, 5)]
    for g in (sv, dm, noisy, stab):
        rng.shuffle(g)
    return _interleave([sv, dm, noisy, stab])


POOLS = {"compile": compile_pool, "dense": dense_pool, "shots": shots_pool}


def build_pool(workload: str, seed: int) -> list[Job]:
    return POOLS[workload](random.Random(f"{workload}:{seed}"))


# -- running -------------------------------------------------------------------

@dataclass
class CompileOut:
    text: str
    blob: bytes
    report: object
    physical: object | None     # None once compact() has compared the two
    decoded: object | None
    round_trip_ok: bool | None = None


@dataclass
class NoisyOut:
    result: object
    report: object
    n_qubits: int


def run_job(qflow, devices: dict, job: Job, seed: int):
    """One job as the CLI would do it: QASM text in, result out. qflow is
    looked up at call time so that traced bindings take effect."""
    circuit = qflow.parse_qasm(job.qasm)
    if job.kind == "compile":
        physical, report = qflow.transpile(circuit, devices[job.device], seed=seed,
                                           opt_level=job.opt_level)
        text = qflow.print_qasm(physical)
        blob = qflow.encode_binary(physical)
        return CompileOut(text, blob, report, physical, qflow.decode_binary(blob))
    if job.kind == "sv":
        return qflow.sv_run(circuit, seed=seed, shots=job.shots)
    if job.kind == "dm":
        return qflow.dm_run(circuit, seed=seed, shots=job.shots)
    if job.kind == "stab":
        return qflow.stab_run(circuit, seed=seed, shots=job.shots)
    device = devices[job.device]
    physical, report = qflow.transpile(circuit, device, seed=seed)
    result = qflow.dm_run(physical, device=device, seed=seed, shots=job.shots)
    return NoisyOut(result, report, physical.n_qubits)


# -- checking ------------------------------------------------------------------

def _stab_fast_path(prog: ref.Program) -> bool:
    """Reset present, no condition, and no operation after any measure on
    the measured qubit: the inputs on which stab_run freezes resets."""
    if any(op.cond is not None for op in prog.ops):
        return False
    measured = set()
    for op in prog.ops:
        if op.name == "measure":
            measured.add(op.qubits[0])
        elif measured & set(op.qubits):
            return False
    return any(op.name == "reset" for op in prog.ops)


def _digest(out: CompileOut) -> bytes:
    """SHA-256 over the printed text and the binary container."""
    return hashlib.sha256(out.text.encode() + b"\0" + out.blob).digest()


class Checker:
    """Per-job references, built outside the timed region the first time a
    job comes up, and the check every timed job passes."""

    def __init__(self, qflow, devices: dict, seed: int):
        self.qflow = qflow
        self.devices = devices
        self.rng = np.random.default_rng(seed)
        self.refs: dict[int, dict] = {}

    def prepare(self, index: int, job: Job):
        """Reference data for a job, independent of qflow's simulators."""
        prog = ref.read_qasm(job.qasm)
        r = {"measured": prog.measured, "n_clbits": prog.n_clbits,
             "has_reset": any(op.name == "reset" for op in prog.ops),
             "fast_path": _stab_fast_path(prog)}
        if job.kind in ("sv", "dm", "stab"):
            r["factors"] = ref.exact_factors(prog)
            r["width"] = prog.n_clbits if prog.measured else prog.n_qubits
        if job.kind in ("compile", "dm_noisy"):
            r["logical_cx"] = self._logical_cx(job)
        self.refs[index] = r

    def _logical_cx(self, job: Job) -> int:
        q = self.qflow
        flat = q.flatten(q.parse_qasm(job.qasm))
        return sum(1 for ins in flat.instructions if ins.opcode in q.LIBRARY
                   for d in q.decompose_to_u_cx(ins) if d.opcode == "cx")

    def ready(self, index: int, job: Job) -> bool:
        """False while a compile job's first output awaits the full check."""
        return job.kind != "compile" or "verdict" in self.refs[index]

    @staticmethod
    def compact(out: CompileOut) -> CompileOut:
        """The output without its circuit objects, which are large, once
        the binary round trip has been compared: what a deferred check
        needs."""
        return CompileOut(out.text, out.blob, out.report, None, None,
                          out.decoded == out.physical)

    def check(self, index: int, job: Job, out) -> str | None:
        """None when the output is right, else what is wrong with it."""
        r = self.refs[index]
        if job.kind == "compile":
            if "verdict" not in r:
                self._verify_compile(r, job, out)
            if r["verdict"] is None and _digest(out) == r["expected"]:
                return None
            return (self._compliance(job, out, ref.read_qasm(out.text))
                    or r["verdict"] or "output differs from the verified output")
        if job.kind == "dm_noisy":
            res = out.result
            width = r["n_clbits"] if r["measured"] else out.n_qubits
            problem = ref.counts_problem(res.counts, job.shots, width, [])
            if problem is None and res.fidelity is not None and not 0.0 <= res.fidelity <= 1.0:
                problem = f"fidelity {res.fidelity} outside [0, 1]"
            return problem
        return ref.counts_problem(out.counts, job.shots, r["width"], r["factors"])

    def _verify_compile(self, r: dict, job: Job, out):
        """Full check of a job's first output: compliance, equivalence up to
        layout and, with measures, the exact clbit distribution. Later runs
        of the job must reproduce its digest byte for byte."""
        logical = ref.read_qasm(job.qasm)
        physical = ref.read_qasm(out.text)
        problem = self._compliance(job, out, physical)
        if problem is None:
            rep = out.report
            problem = ref.equivalent_up_to_layout(logical, physical, rep.layout_initial,
                                                  rep.layout_final, self.rng)
        if problem is None and logical.measured:
            want = ref.joint_distribution(ref.exact_factors(logical), logical.n_clbits)
            got = ref.joint_distribution(ref.exact_factors(physical), physical.n_clbits)
            if np.abs(want - got).max() > 1e-9:
                problem = "measured distribution differs from the logical circuit"
        r["verdict"] = problem
        r["expected"] = _digest(out)

    def _compliance(self, job: Job, out, physical: ref.Program) -> str | None:
        dev = self.devices[job.device]
        same = out.round_trip_ok if out.physical is None else out.decoded == out.physical
        if not same:
            return "binary round trip changed the circuit"
        return ref.compliance_problem(physical, dev.basis_gates, dev.coupling_map,
                                      dev.num_qubits)

    def classify(self, index: int, job: Job, exc: BaseException | None) -> str:
        """Name the cause of a failed job: a known defect or 'unexpected'."""
        r = self.refs[index]
        if exc is not None:
            if isinstance(exc, self.qflow.RoutingError):
                return "router-stuck"
            if (job.kind == "dm_noisy" and r["has_reset"]
                    and isinstance(exc, self.qflow.SimulationError)):
                return "dm-reset-with-device"
            return f"unexpected-{type(exc).__name__}"
        if job.kind == "stab" and r["fast_path"]:
            return "stab-reset-fast-path"
        return "unexpected-wrong-answer"
