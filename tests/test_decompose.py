"""Decomposition to {u3, cx} and retargeting to device basis families."""

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qflow.circuit import Instruction
from qflow.decompose import decompose_to_u_cx, resolve_1q_family, retarget_1q, retarget_2q
from qflow.errors import QasmError, QFlowError, UnsupportedBasisError
from qflow.euler import normalize_angle, reduce_angle, snap_angle, u3_cells, zyz_from_cells
from qflow.gates import LIBRARY, BasisSet, u3_matrix, unitary_of
from qflow.parser import gate_template

from oracles import apply_to_columns, phase_distance

PI = math.pi


def zyz_angles(u: np.ndarray) -> tuple:
    return zyz_from_cells(*u.ravel().tolist())


def _compose_1q(seq) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for name, params in seq:
        u = unitary_of(name, params) @ u
    return u


def _compose_instrs(instrs, n) -> np.ndarray:
    wire = {("q", k): k for k in range(n)}
    u = np.eye(1 << n, dtype=complex)
    for ins in instrs:
        u = apply_to_columns(u, unitary_of(ins.opcode, ins.params), [wire[q] for q in ins.qubits], n)
    return u


class TestDecomposeToUCx:
    def test_h_is_single_u3(self):
        out = decompose_to_u_cx(Instruction("h", (), (("q", 0),)))
        assert len(out) == 1 and out[0].opcode == "u3"
        assert out[0].params == (PI / 2, 0.0, PI)

    def test_swap_is_three_cx(self):
        out = decompose_to_u_cx(Instruction("swap", (), (("q", 0), ("q", 1))))
        assert [i.opcode for i in out] == ["cx", "cx", "cx"]
        assert out[1].qubits == (("q", 1), ("q", 0))
        got = _compose_instrs(out, 2)
        want = apply_to_columns(np.eye(4, dtype=complex), unitary_of("swap"), [0, 1], 2)
        assert phase_distance(want, got) < 1e-12

    def test_rz_matches_u3_form(self):
        out = decompose_to_u_cx(Instruction("rz", (0.7,), (("q", 0),)))
        assert phase_distance(unitary_of("rz", (0.7,)), _compose_1q(
            [(i.opcode, i.params) for i in out]
        )) < 1e-12

    def test_every_builtin_sound(self):
        """Each builtin's qelib1 line, flattened to u3/cx, equals its matrix
        up to global phase, and so does its decomposition, which is that
        line but for the stated one-u3 forms of sx and sxdg."""
        rng = np.random.default_rng(77)
        for name, spec in LIBRARY.items():
            for _ in range(100 if spec.param_count else 3):
                params = tuple(rng.uniform(-2 * PI, 2 * PI, spec.param_count))
                qubits = tuple(("q", k) for k in range(spec.arity))
                out = decompose_to_u_cx(Instruction(name, params, qubits))
                line = [Instruction(op, p, tuple(qubits[s] for s in slots))
                        for op, p, slots in gate_template(name, params)]
                assert all(i.opcode in ("u3", "cx") for i in out + line)
                want = apply_to_columns(
                    np.eye(1 << spec.arity, dtype=complex),
                    unitary_of(name, params),
                    list(range(spec.arity)),
                    spec.arity,
                )
                got = _compose_instrs(line, spec.arity)
                dist = phase_distance(want, got)
                assert dist < 1e-10, f"{name}{params}: {dist}"
                dist = phase_distance(got, _compose_instrs(out, spec.arity))
                assert dist < 1e-10, f"{name}{params}: {dist}"

    def test_condition_carried(self):
        out = decompose_to_u_cx(Instruction("cz", (), (("q", 0), ("q", 1)), (), ("c", 1)))
        assert all(i.condition == ("c", 1) for i in out)

    def test_non_gate_rejected(self):
        with pytest.raises(QFlowError, match="not a builtin gate"):
            decompose_to_u_cx(Instruction("measure", (), (("q", 0),), (("c", 0),)))


_Q1, _Q2 = (("q", 0),), (("q", 0), ("q", 1))
_NAN, _INF = float("nan"), float("inf")
_HOSTILE = {
    "rz_without_its_angle": (decompose_to_u_cx, Instruction("rz", (), _Q1)),
    "cx_on_one_qubit": (decompose_to_u_cx, Instruction("cx", (), _Q1)),
    "u3_with_one_angle": (decompose_to_u_cx, Instruction("u3", (1.0,), _Q1)),
    "crz_without_its_angle": (decompose_to_u_cx, Instruction("crz", (), _Q2)),
    "h_with_an_angle": (decompose_to_u_cx, Instruction("h", (_NAN,), _Q1)),
    "rx_of_a_string": (decompose_to_u_cx, Instruction("rx", ("a",), _Q1)),
    "retarget_nan": (retarget_1q, (_NAN, 0.0, 0.0), "zsx"),
    "retarget_two_angles": (retarget_1q, (1.0, 2.0), "zsx"),
    "retarget_a_string": (retarget_1q, ("a", 0.0, 0.0), "u3"),
    "retarget_inf": (retarget_1q, (_INF, 0.0, 0.0), "zsx"),
}


@pytest.mark.parametrize("call", _HOSTILE.values(), ids=_HOSTILE.keys())
def test_a_malformed_gate_raises_a_qasm_error(call):
    """The public gate-level functions check what they are given, so a
    caller meets only QFlowError subclasses, never an IndexError, a
    ValueError, a TypeError or a silent NaN."""
    function, *args = call
    with pytest.raises(QasmError):
        function(*args)


class TestRetarget1q:
    FAMILIES = ("zsx", "zxz", "zyz", "u3", "u")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_random_angles_sound(self, family):
        rng = np.random.default_rng(hash(family) % 2**32)
        for trial in range(400):
            t, p, l = rng.uniform(-2 * PI, 2 * PI, 3)
            if trial % 4 == 0:
                t = float(rng.choice([0.0, PI / 2, -PI / 2, PI, -PI, 2 * PI, 3 * PI / 2]))
            seq = retarget_1q((t, p, l), family)
            dist = phase_distance(u3_matrix(t, p, l), _compose_1q(seq))
            assert dist < 1e-9, f"{family} U3({t},{p},{l}) -> {seq}: {dist}"

    def test_zsx_collapses(self):
        # theta = 0: single rz
        assert retarget_1q((0.0, 0.3, 0.4), "zsx") == [("rz", (0.7,))]
        # phase-only gate: rz alone
        seq = retarget_1q((0.0, 0.0, 1.1), "zsx")
        assert [s[0] for s in seq] == ["rz"]
        # theta = pi/2: exactly one sx
        seq = retarget_1q((PI / 2, 0.4, -0.2), "zsx")
        assert [s[0] for s in seq].count("sx") == 1
        # Hadamard: rz sx rz
        seq = retarget_1q((PI / 2, 0.0, PI), "zsx")
        assert [s[0] for s in seq] == ["rz", "sx", "rz"]
        # X gate: single x after canonicalization
        theta, phi, lam = zyz_angles(unitary_of("x"))
        assert retarget_1q((theta, phi, lam), "zsx") == [("x", ())]
        # identity: empty
        assert retarget_1q((0.0, 0.0, 0.0), "zsx") == []
        assert retarget_1q((0.0, PI, PI), "zsx") == []

    def test_u3_family_identity(self):
        assert retarget_1q((1.0, 0.5, -0.5), "u3") == [("u3", (1.0, 0.5, -0.5))]
        assert retarget_1q((1.0, 0.5, -0.5), "u") == [("u", (1.0, 0.5, -0.5))]
        assert retarget_1q((0.0, 0.5, -0.5), "u3") == []  # the identity

    def test_snapping_to_lattice(self):
        eps = 1e-12
        seq = retarget_1q((0.0, 0.0, PI / 2 + eps), "zsx")
        assert seq == [("rz", (PI / 2,))]

    def test_family_resolution(self):
        assert resolve_1q_family(BasisSet.from_names(["u3", "cx"])) == "u3"
        assert resolve_1q_family(BasisSet.from_names(["u", "cx"])) == "u"
        assert resolve_1q_family(BasisSet.from_names(["rz", "sx", "x", "cx"])) == "zsx"
        assert resolve_1q_family(BasisSet.from_names(["rz", "rx", "cz"])) == "zxz"
        assert resolve_1q_family(BasisSet.from_names(["rz", "ry", "cx"])) == "zyz"
        with pytest.raises(UnsupportedBasisError):
            resolve_1q_family(BasisSet.from_names(["h", "t", "cx"]))


class TestRetarget2q:
    def test_native_cx(self):
        assert retarget_2q(BasisSet.from_names(["rz", "sx", "x", "cx"])) == "cx"
        assert retarget_2q(BasisSet.from_names(["rz", "sx", "x", "cx", "cz"])) == "cx"

    def test_native_cz(self):
        assert retarget_2q(BasisSet.from_names(["rz", "sx", "x", "cz"])) == "cz"

    def test_unsupported_two_qubit_basis(self):
        with pytest.raises(UnsupportedBasisError, match="cx or cz"):
            retarget_2q(BasisSet.from_names(["rz", "sx", "x", "rzz"]))

    @pytest.mark.parametrize("basis", ["cx", ("rz", "sx", "x", "cx"), None])
    def test_a_basis_that_is_not_a_basis_set_is_refused(self, basis):
        # once AttributeError: 'str' object has no attribute 'two_qubit'
        with pytest.raises(UnsupportedBasisError, match="^basis must be a BasisSet, got "):
            retarget_2q(basis)


class TestEulerUtilities:
    def test_zyz_total_including_degenerate(self):
        rng = np.random.default_rng(9)
        specials = [
            unitary_of("x"), unitary_of("z"), unitary_of("h"), np.eye(2, dtype=complex),
            u3_matrix(1e-13, 0.3, 0.4), u3_matrix(PI - 1e-13, 0.3, 0.4),
        ]
        mats = specials + [u3_matrix(*rng.uniform(-2 * PI, 2 * PI, 3)) for _ in range(500)]
        for u in mats:
            t, p, l = zyz_angles(u)
            assert phase_distance(u, u3_matrix(t, p, l)) < 1e-9

    def test_degenerate_branch_convention(self):
        t, p, l = zyz_angles(unitary_of("s"))
        assert t == 0.0 and l == 0.0 and abs(p - PI / 2) < 1e-12

    def test_normalize_angle(self):
        assert normalize_angle(3 * PI) == pytest.approx(PI)
        assert normalize_angle(-PI) == pytest.approx(PI)
        assert normalize_angle(PI) == PI
        assert normalize_angle(0.5) == 0.5

    @pytest.mark.parametrize("a", [1e9, -3e15, 1e300, -1.7976931348623157e308])
    def test_normalize_angle_keeps_a_huge_angle(self, a):
        """fmod by the double nearest 2*pi drifts by about 2.4e-16 per
        turn; the gate matrices reduce by 2*pi exactly, and so must this."""
        r = normalize_angle(a)
        assert -PI < r <= PI
        assert abs(cmath.exp(1j * r) - cmath.exp(1j * a)) < 1e-12

    def test_snap_angle(self):
        assert snap_angle(PI / 2 + 5e-10) == PI / 2
        assert snap_angle(PI / 2 + 5e-8) != PI / 2
        assert snap_angle(-1e-12) == 0.0
        assert snap_angle(-PI + 1e-12) == PI


# angles the circuit rule accepts, whose sum or difference overflows a double
_BIG = 1.7e308
_OVERFLOWING = [(0.0, _BIG, _BIG), (0.7, _BIG, _BIG), (PI, _BIG, -_BIG), (-0.3, -_BIG, -_BIG),
                (PI / 2, _BIG, _BIG), (0.0, 1e308, 1.7976931348623157e308)]


def _reduced(t: float, p: float, l: float) -> tuple:
    return t, normalize_angle(p), normalize_angle(l)


@given(st.floats(-2 * PI, 2 * PI))
@settings(max_examples=300, deadline=None)
def test_reduce_angle_keeps_an_angle_of_one_turn_bit_for_bit(a):
    assert struct.pack("<d", reduce_angle(a)) == struct.pack("<d", a)


@given(st.floats(-1.7976931348623157e308, 1.7976931348623157e308).filter(
    lambda a: abs(a) > 2 * PI))
@settings(max_examples=300, deadline=None)
def test_reduce_angle_reduces_a_larger_angle_exactly(a):
    """The remainder mod 2*pi, as the gate matrices take it: the phases
    agree to within 1e-15, which no sum with an unreduced angle keeps."""
    r = reduce_angle(a)
    assert -PI <= r <= PI
    assert abs(cmath.exp(1j * r) - cmath.exp(1j * a)) <= 1e-15


@pytest.mark.parametrize("angles", _OVERFLOWING, ids=str)
def test_an_overflowing_angle_sum_gives_the_u3_of_the_reduced_angles(angles):
    """Each angle is 2*pi-periodic, so the matrix and its cells equal those
    of the reduced angles; every retarget is finite."""
    want = u3_matrix(*_reduced(*angles))
    assert np.isfinite(u3_matrix(*angles)).all()
    assert phase_distance(want, u3_matrix(*angles)) < 1e-12
    assert phase_distance(want, np.array(u3_cells(*angles)).reshape(2, 2)) < 1e-12
    for family in ("u3", "u", "zsx", "zxz", "zyz"):
        seq = retarget_1q(angles, family)
        assert all(math.isfinite(x) for _, params in seq for x in params), family


@pytest.mark.parametrize("angles", _OVERFLOWING, ids=str)
def test_an_overflowing_cu3_template_reduces_both_angles_alike(angles):
    out = decompose_to_u_cx(Instruction("cu3", angles, (("q", 0), ("q", 1))))
    assert all(math.isfinite(x) for i in out for x in i.params)
    want = apply_to_columns(np.eye(4, dtype=complex), unitary_of("cu3", _reduced(*angles)),
                            [0, 1], 2)
    assert phase_distance(want, _compose_instrs(out, 2)) < 1e-9


_HUGE = (3e9, 1e16, 1e300, -1.7e308, 1.7976931348623157e308)


@pytest.mark.parametrize("angle", _HUGE, ids=str)
def test_every_parametrized_builtin_decomposes_soundly_at_a_huge_angle(angle):
    """Each parameter at the angle in turn (the others ordinary), then all
    of them: the template is finite u3/cx whose product is the gate's
    matrix at the same angles up to global phase."""
    for name, spec in LIBRARY.items():
        k = spec.param_count
        if not k:
            continue
        ordinary = (0.5, 0.3, 0.2)[:k]
        cases = [ordinary[:j] + (angle,) + ordinary[j + 1:] for j in range(k)] + [(angle,) * k]
        qubits = tuple(("q", j) for j in range(spec.arity))
        for params in cases:
            out = decompose_to_u_cx(Instruction(name, params, qubits))
            assert all(i.opcode in ("u3", "cx") for i in out)
            assert all(math.isfinite(x) for i in out for x in i.params), (name, params)
            want = apply_to_columns(np.eye(1 << spec.arity, dtype=complex),
                                    unitary_of(name, params), list(range(spec.arity)),
                                    spec.arity)
            dist = phase_distance(want, _compose_instrs(out, spec.arity))
            assert dist <= 1e-9, f"{name}{params}: {dist}"
