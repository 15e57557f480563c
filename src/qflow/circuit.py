"""In-memory circuit representation.

A :class:`Circuit` is an ordered instruction list over declared quantum and
classical registers, plus any user gate macros. Instances are treated as
immutable once constructed; every transformation in the toolchain returns a
new circuit. Equality is structural: registers, macro definitions, and the
instruction sequence (parameters compared bit-for-bit).

Wire numbering is little-endian and global: quantum registers occupy
consecutive wire indices in declaration order, and qubit 0 is the least
significant bit of a basis-state index. Classical bits are numbered the same
way over classical registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import QasmError

__all__ = [
    "Register",
    "Instruction",
    "GateDef",
    "BodyInstruction",
    "Circuit",
    "ParamExpr",
    "Const",
    "FormalRef",
    "Neg",
    "BinOp",
    "FuncCall",
    "eval_expr",
]

# Opcodes that are statements rather than unitary gates.
NON_GATE_OPCODES = frozenset({"measure", "barrier", "reset", "delay"})


@dataclass(frozen=True, slots=True)
class Register:
    """A named quantum ("q") or classical ("c") register."""

    name: str
    kind: str
    size: int


# --------------------------------------------------------------------------
# Parameter expressions.
#
# Top-level instruction parameters are folded to floats at parse time. Only
# gate macro bodies keep expression trees, because their parameters refer to
# the macro's formal arguments and can be evaluated only at expansion time.
# --------------------------------------------------------------------------

class ParamExpr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(ParamExpr):
    value: float


@dataclass(frozen=True, slots=True)
class FormalRef(ParamExpr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(ParamExpr):
    operand: ParamExpr


@dataclass(frozen=True, slots=True)
class BinOp(ParamExpr):
    op: str  # one of + - * / ^
    left: ParamExpr
    right: ParamExpr


@dataclass(frozen=True, slots=True)
class FuncCall(ParamExpr):
    fn: str  # sin cos tan exp ln sqrt
    arg: ParamExpr


_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}


def eval_expr(
    expr: ParamExpr, env: dict[str, float], line: int | None = None, col: int | None = None
) -> float:
    """Evaluate a parameter expression under formal-argument bindings.

    The result must be a finite real. Division by zero, a math domain or
    range error, an infinite or NaN result and the complex result of a
    negative base to a fractional power raise :class:`QasmError`, located
    at ``line``/``col`` when given.
    """
    try:
        value = _evaluate(expr, env)
        # math.isfinite raises TypeError on a complex value
        if not math.isfinite(value):
            raise OverflowError(f"result {value} is not finite")
    except (ZeroDivisionError, ValueError, OverflowError, TypeError) as exc:
        raise QasmError(f"invalid constant expression: {exc}", line, col) from None
    return value


def _evaluate(expr: ParamExpr, env: dict[str, float]) -> float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, FormalRef):
        try:
            return env[expr.name]
        except KeyError:
            raise QasmError(f"unbound gate parameter '{expr.name}'") from None
    if isinstance(expr, Neg):
        return -_evaluate(expr.operand, env)
    if isinstance(expr, BinOp):
        a = _evaluate(expr.left, env)
        b = _evaluate(expr.right, env)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return a / b
        if expr.op == "^":
            return a ** b
        raise QasmError(f"unknown operator '{expr.op}'")
    if isinstance(expr, FuncCall):
        return _FUNCS[expr.fn](_evaluate(expr.arg, env))
    raise TypeError(f"not a parameter expression: {expr!r}")


# --------------------------------------------------------------------------
# Instructions.
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Instruction:
    """One executable statement.

    ``qubits`` and ``clbits`` hold ``(register_name, index)`` pairs; an index
    of ``None`` designates the whole register (compact source form, expanded
    by :func:`qflow.flatten.flatten`). ``params`` are floats, except for
    ``delay`` whose single parameter is an integer cycle count.
    ``condition`` is an optional ``(creg_name, value)`` pair from an ``if``.
    """

    opcode: str
    params: tuple = ()
    qubits: tuple = ()
    clbits: tuple = ()
    condition: tuple | None = None


@dataclass(frozen=True, slots=True)
class BodyInstruction:
    """Statement inside a gate macro body.

    Qubit operands are formal-argument indices; parameters are expression
    trees over the macro's formal parameters.
    """

    opcode: str
    params: tuple = ()
    qubits: tuple = ()


@dataclass(frozen=True, slots=True)
class GateDef:
    """User gate macro (or opaque declaration with an empty body)."""

    name: str
    params: tuple = ()
    qubits: tuple = ()
    body: tuple = ()
    opaque: bool = False
    from_include: bool = False


# --------------------------------------------------------------------------
# Circuit.
# --------------------------------------------------------------------------

@dataclass(eq=True)
class Circuit:
    registers: tuple = ()
    instructions: tuple = ()
    gate_defs: tuple = ()
    includes: tuple = ()
    source_name: str | None = field(default=None, compare=False)

    # -- register queries ---------------------------------------------------

    def register(self, name: str) -> Register | None:
        for reg in self.registers:
            if reg.name == name:
                return reg
        return None

    def classical_registers(self) -> list[Register]:
        return [r for r in self.registers if r.kind == "c"]

    @property
    def n_qubits(self) -> int:
        return sum(r.size for r in self.registers if r.kind == "q")

    @property
    def n_clbits(self) -> int:
        return sum(r.size for r in self.registers if r.kind == "c")

    def qubit_offsets(self) -> dict[str, int]:
        """Global wire index of each quantum register's wire 0."""
        offsets: dict[str, int] = {}
        k = 0
        for reg in self.registers:
            if reg.kind == "q":
                offsets[reg.name] = k
                k += reg.size
        return offsets

    def clbit_offsets(self) -> dict[str, int]:
        offsets: dict[str, int] = {}
        k = 0
        for reg in self.registers:
            if reg.kind == "c":
                offsets[reg.name] = k
                k += reg.size
        return offsets

    def gate_def(self, name: str) -> GateDef | None:
        for gd in self.gate_defs:
            if gd.name == name:
                return gd
        return None

    # -- convenience --------------------------------------------------------

    def with_instructions(self, instructions) -> "Circuit":
        return Circuit(
            registers=self.registers,
            instructions=tuple(instructions),
            gate_defs=self.gate_defs,
            includes=self.includes,
            source_name=self.source_name,
        )

    def __repr__(self) -> str:  # keep huge circuits printable
        regs = ", ".join(f"{r.name}[{r.size}]" for r in self.registers)
        return f"Circuit({regs}; {len(self.instructions)} instructions)"
