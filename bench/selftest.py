"""Self-tests of the benchmark itself (not of qflow).

    python3 bench/selftest.py      # from the repository root

Checks that generators are deterministic per seed, that the seed changes
the mix, that the references are right on circuits with known answers, and
that the checker rejects planted wrong answers. Exits 1 on any failure.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np

import circuits as gen
import reference as ref
import workloads

GENERATORS = {
    "random_general": lambda r: gen.random_general(r, 5, 80, measure=True),
    "qft": lambda r: gen.qft(r, 6),
    "ghz": lambda r: gen.ghz(5, mid=True),
    "random_clifford": lambda r: gen.random_clifford(r, 23, 90),
    "teleport": lambda r: gen.teleport(r, 2),
    "syndrome_rounds": lambda r: gen.syndrome_rounds(r, 3, 2, clifford=False),
    "qubit_reuse": lambda r: gen.qubit_reuse(r, 4),
}
FAILURES: list[str] = []


def check(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def sample(factors, width: int, shots: int, seed: int) -> dict:
    """Draw correct counts from the exact distribution."""
    p = ref.joint_distribution(factors, width)
    draws = np.random.default_rng(seed).multinomial(shots, p / p.sum())
    return {format(i, f"0{width}b"): int(n) for i, n in enumerate(draws) if n}


def test_determinism():
    for name, make in GENERATORS.items():
        check(make(random.Random(5)) == make(random.Random(5)), f"{name}: same seed, same QASM")
    for w in workloads.POOLS:
        a = [j.qasm for j in workloads.build_pool(w, 11)]
        b = [j.qasm for j in workloads.build_pool(w, 11)]
        c = [j.qasm for j in workloads.build_pool(w, 12)]
        check(a == b, f"{w}: same seed, byte-identical pool")
        check(a != c, f"{w}: another seed changes the mix")


def test_references():
    bell = ref.read_qasm(gen.ghz(2))
    p = ref.joint_distribution(ref.exact_factors(bell), 2)
    check(np.allclose(p, [0.5, 0, 0, 0.5]), "Bell pair: exact distribution")
    prog = ref.read_qasm(gen.teleport(random.Random(3), 2))
    theta = prog.ops[0].params[0]
    p = ref.joint_distribution(ref.exact_factors(prog), prog.n_clbits)
    check(np.allclose(p.reshape(2, -1).sum(axis=1), [np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2]),
          "teleport: output qubit keeps the prepared distribution")
    reuse = ref.read_qasm(gen.qubit_reuse(random.Random(1), 2))
    p = ref.joint_distribution(ref.exact_factors(reuse), 2)
    check(np.allclose(p.reshape(2, 2).sum(axis=1), [0.5, 0.5]),
          "qubit reuse: reset leaves the partner qubit mixed")


def test_planted_wrong_answers():
    text = ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n"
            "ry(0.6) q[0];\ncx q[0],q[1];\nry(1.1) q[2];\nmeasure q -> c;\n")
    factors = ref.exact_factors(ref.read_qasm(text))
    counts = sample(factors, 3, 1024, 1)
    check(ref.counts_problem(counts, 1024, 3, factors) is None, "correct counts pass")
    flipped = {k[:-1] + ("1" if k[-1] == "0" else "0"): n for k, n in counts.items()}
    check(ref.counts_problem(flipped, 1024, 3, factors) is not None, "flipped counts fail")
    swapped = {k[::-1]: n for k, n in counts.items()}
    check(ref.counts_problem(swapped, 1024, 3, factors) is not None, "bit-reversed counts fail")
    frozen = {max(counts, key=counts.get): 1024}
    check(ref.counts_problem(frozen, 1024, 3, factors) is not None, "frozen outcome fails")

    line = {"basis": ("rz", "sx", "x", "cx"), "coupling": ((0, 1), (1, 2), (2, 3), (3, 4))}
    head = "OPENQASM 2.0;\nqreg q[5];\n"
    good = ref.read_qasm(head + "cx q[0],q[1];\nrz(0.5) q[2];\n")
    check(ref.compliance_problem(good, line["basis"], line["coupling"], 5) is None,
          "compliant physical circuit passes")
    for bad in ("cx q[0],q[2];\n", "cx q[1],q[0];\n", "h q[0];\n"):
        prog = ref.read_qasm(head + bad)
        check(ref.compliance_problem(prog, line["basis"], line["coupling"], 5) is not None,
              f"non-compliant '{bad.strip()}' fails")


def test_equivalence_with_qflow():
    src = Path.cwd() / "src"
    if not (src / "qflow").is_dir():
        check(False, "qflow sources under ./src (run from the repository root)")
        return
    sys.path.insert(0, str(src))
    import qflow
    device = qflow.load_bundled_device("line5")
    text = gen.random_general(random.Random(2), 4, 60)
    physical, report = qflow.transpile(qflow.parse_qasm(text), device)
    printed = qflow.print_qasm(physical)
    rng = np.random.default_rng(0)
    logical = ref.read_qasm(text)
    check(ref.equivalent_up_to_layout(logical, ref.read_qasm(printed), report.layout_initial,
                                      report.layout_final, rng) is None,
          "transpiled circuit is equivalent up to layout")
    lines = printed.splitlines()
    k = next(i for i, l in enumerate(lines) if l.startswith("rz("))
    lines[k] = "rz(0.123) " + lines[k].split(" ", 1)[1]
    check(ref.equivalent_up_to_layout(logical, ref.read_qasm("\n".join(lines)),
                                      report.layout_initial, report.layout_final, rng) is not None,
          "a changed rotation angle is caught")
    wrong_layout = tuple(reversed(report.layout_final[:4])) + report.layout_final[4:]
    check(ref.equivalent_up_to_layout(logical, ref.read_qasm(printed), report.layout_initial,
                                      wrong_layout, rng) is not None,
          "a wrong final layout is caught")


if __name__ == "__main__":
    test_determinism()
    test_references()
    test_planted_wrong_answers()
    test_equivalence_with_qflow()
    print(f"{len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)
