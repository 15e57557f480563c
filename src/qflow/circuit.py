"""In-memory circuit representation.

A :class:`Circuit` is an ordered instruction list over declared quantum and
classical registers, plus any user gate macros. Instances are treated as
immutable once constructed; every transformation in the toolchain returns a
new circuit. Equality is structural: registers, macro definitions, and the
instruction sequence, with parameters compared by float ``==``, so ``0.0``
equals ``-0.0`` although the two print and encode differently.

Wire numbering is little-endian and global: quantum registers occupy
consecutive wire indices in declaration order, and qubit 0 is the least
significant bit of a basis-state index. Classical bits are numbered the same
way over classical registers.

:meth:`Circuit.resolve` alone applies this numbering: layout, routing,
scheduling, metrics, the codec and the simulators read its
:class:`Resolution`. It is built on first use, once per distinct operand
tuple, kept outside equality and ``repr``, and rebuilt when ``registers`` or
``instructions`` is replaced. It is also the one check of a flat
instruction, so no other stage repeats it: its shape (:func:`shape_error`)
and each operand, which must name one wire of a declared register of the
right kind (no register-wide index ``None``), for qubits, clbits and ``if``
registers alike, and for a gate a wire no other operand names. Operands are
a tuple of ``(register, index)`` tuples, parameters a tuple of finite real
numbers (:func:`param_error`) and an ``if`` condition a ``(register,
integer)`` pair (:func:`condition_error`). A failure raises
:class:`QasmError` prefixed ``instruction k:``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .errors import QasmError
from .gates import LIBRARY

__all__ = [
    "Register",
    "Instruction",
    "GateDef",
    "BodyInstruction",
    "Circuit",
    "Resolution",
    "ParamExpr",
    "Const",
    "FormalRef",
    "Neg",
    "BinOp",
    "FuncCall",
    "eval_expr",
]

# opcode -> (qubit count, parameter count, clbit count) of a flat
# instruction: a library gate or one of the four statements. None marks a
# count with a rule of its own in shape_error (a barrier takes one qubit or
# more, a delay one integer cycle count)
SHAPES = {name: (spec.arity, spec.param_count, 0) for name, spec in LIBRARY.items()}
SHAPES.update(measure=(1, 0, 1), reset=(1, 0, 0), delay=(1, None, 0), barrier=(None, 0, 0))
_NO_PARAMS = ()  # CPython's one empty tuple: a test of identity passes most gates


def shape_error(instr) -> str | None:
    """Why ``instr`` is not the shape of a flat instruction, or None; of its
    operands only their number counts."""
    opcode, params, qubits = instr.opcode, instr.params, instr.qubits
    if opcode not in SHAPES:
        return f"undeclared gate '{opcode}'"
    arity, n_params, n_clbits = SHAPES[opcode]
    what = f"gate '{opcode}'" if opcode in LIBRARY else f"'{opcode}'"
    if opcode == "delay":
        if len(params) != 1 or type(params[0]) is not int or params[0] < 0:
            return "delay cycle count must be a nonnegative integer"
    elif len(params) != n_params:
        return f"{what} takes {n_params} parameter(s), got {len(params)}"
    if arity is None and not qubits:
        return "a barrier needs at least one qubit"
    if arity is not None and len(qubits) != arity:
        return f"{what} acts on {arity} qubit(s), got {len(qubits)}"
    if len(instr.clbits) != n_clbits:
        return f"{what} writes {n_clbits} clbit(s), got {len(instr.clbits)}"
    if opcode == "barrier" and instr.condition is not None:
        return "a barrier cannot be conditioned"
    return None


def operand_error(operands) -> str | None:
    """Why ``operands`` is not a tuple of ``(register, index)`` tuples, or None."""
    if isinstance(operands, tuple) and all(
            isinstance(op, tuple) and len(op) == 2 for op in operands):
        return None
    return f"operands must be a tuple of (register, index) tuples, got {operands!r}"


def param_error(params) -> str | None:
    """Why ``params`` is not a tuple of real numbers that are finite as
    doubles, or None."""
    if type(params) is not tuple:
        return f"parameters must be a tuple, got {params!r}"
    for p in params:
        try:
            finite = isinstance(p, (float, int, Real)) and math.isfinite(p)
        except OverflowError:  # an int too large for a double
            finite = False
        if not finite:
            return f"parameter {p!r} is not a finite real number"
    return None


def condition_error(condition) -> str | None:
    """Why ``condition`` is not a ``(register, integer)`` pair, or None."""
    if type(condition) is not tuple or len(condition) != 2 or type(condition[0]) is not str:
        return f"an if condition must be a (register, integer) pair, got {condition!r}"
    value = condition[1]
    return None if isinstance(value, int) else f"if value {value!r} is not an integer"


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


def eval_expr(expr: ParamExpr, env: dict[str, float]) -> float:
    """Evaluate a parameter expression under formal-argument bindings.

    The result must be a finite real. Division by zero, a math domain or
    range error, an infinite or NaN result and the complex result of a
    negative base to a fractional power raise :class:`QasmError` without a
    position; the parser re-raises it at its own token.
    """
    try:
        value = _evaluate(expr, env)
        # math.isfinite raises TypeError on a complex value
        if not math.isfinite(value):
            raise OverflowError(f"result {value} is not finite")
    except (ZeroDivisionError, ValueError, OverflowError, TypeError) as exc:
        raise QasmError(f"invalid constant expression: {exc}") from None
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
    by :func:`qflow.flatten.flatten`). ``params`` is a tuple of real numbers
    (floats when parsed); ``delay`` takes one integer cycle count.
    ``condition`` is an optional ``(creg_name, value)`` pair from an ``if``.
    Nothing is checked on construction: :meth:`Circuit.resolve` is the one
    check of an instruction's shape and operands.
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

@dataclass(frozen=True, slots=True)
class Resolution:
    """A circuit's operands as global indices: ``wires[k]`` holds instruction
    k's qubit wires; ``clbits`` maps k to its clbits and ``conditions`` maps
    k to its ``if`` test as (offset, mask, value) over the integer that holds
    every clbit, each only for the instructions that have them."""

    wires: tuple
    clbits: dict
    conditions: dict


@dataclass(eq=True)
class Circuit:
    registers: tuple = ()
    instructions: tuple = ()
    gate_defs: tuple = ()
    includes: tuple = ()

    # (instructions, registers, Resolution) of the last resolve(); not a field
    _resolved = None

    # -- register queries ---------------------------------------------------

    def register(self, name: str) -> Register | None:
        for reg in self.registers:
            if reg.name == name:
                return reg
        return None

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

    def resolve(self) -> Resolution:
        """The operands as global indices, checked; see the module docstring."""
        cached = self._resolved
        if cached and cached[0] is self.instructions and cached[1] is self.registers:
            return cached[2]
        offsets = {"q": self.qubit_offsets(), "c": self.clbit_offsets()}
        wires: list[tuple] = []
        clbits: dict[int, tuple] = {}
        conditions: dict[int, tuple] = {}

        def indices(operands: tuple, kind: str) -> tuple:
            why = operand_error(operands)
            if why is not None:
                raise QasmError(f"instruction {len(wires)}: {why}")
            out = []
            for name, idx in operands:
                reg = self.register(name)
                if reg and reg.kind == kind and isinstance(idx, int) and 0 <= idx < reg.size:
                    out.append(offsets[kind][name] + idx)
                    continue
                if reg is None:
                    why = f"undeclared register '{name}'"
                elif reg.kind != kind:
                    why = f"'{name}' is not a {'quantum' if kind == 'q' else 'classical'} register"
                elif idx is None:
                    why = f"register-wide operand '{name}' (flatten the circuit first)"
                else:
                    why = f"index {idx!r} out of range for {name}[{reg.size}]"
                raise QasmError(f"instruction {len(wires)}: {why}")
            return tuple(out)

        wires_of: dict = {}
        repeated = set()  # wire tuples that name a wire twice
        add = wires.append
        for instr in self.instructions:
            operands, params, cbits = instr.qubits, instr.params, instr.clbits
            try:
                ws = wires_of[operands]
            except (KeyError, TypeError):  # new operands, or unhashable ones that indices() refuses
                ws = wires_of[operands] = indices(operands, "q")
                if len(set(ws)) != len(ws):
                    repeated.add(ws)
            # the common shapes and parameters (finite floats) pass here; the
            # rest go to shape_error and param_error
            try:
                shape = SHAPES[instr.opcode]
            except KeyError:  # shape_error names the opcode
                shape = (None, None, None)
            if shape[0] != len(ws) or shape[1] != len(params) or shape[2] != len(cbits):
                why = shape_error(instr)
                if why is not None:
                    raise QasmError(f"instruction {len(wires)}: {why}")
            if params is not _NO_PARAMS:
                if type(params) is not tuple:
                    raise QasmError(f"instruction {len(wires)}: {param_error(params)}")
                # one finite float passes without a loop; p - p is nan for nan and inf
                if len(params) != 1 or type(p := params[0]) is not float or p - p:
                    for p in params:
                        if type(p) is not float or p - p:
                            why = param_error(params)
                            if why is not None:
                                raise QasmError(f"instruction {len(wires)}: {why}")
                            break
            if repeated and ws in repeated and instr.opcode in LIBRARY:
                raise QasmError(
                    f"instruction {len(wires)}: duplicate qubit operand in '{instr.opcode}'")
            if cbits or instr.condition is not None:
                k = len(wires)
                if cbits:
                    clbits[k] = indices(cbits, "c")
                if instr.condition is not None:
                    if why := condition_error(instr.condition):
                        raise QasmError(f"instruction {k}: {why}")
                    name, value = instr.condition
                    (offset,) = indices(((name, 0),), "c")
                    conditions[k] = (offset, (1 << self.register(name).size) - 1, value)
            add(ws)
        resolution = Resolution(tuple(wires), clbits, conditions)
        self._resolved = (self.instructions, self.registers, resolution)
        return resolution

    # -- convenience --------------------------------------------------------

    def with_instructions(self, instructions) -> "Circuit":
        return Circuit(
            registers=self.registers,
            instructions=tuple(instructions),
            gate_defs=self.gate_defs,
            includes=self.includes,
        )

    def __repr__(self) -> str:  # keep huge circuits printable
        regs = ", ".join(f"{r.name}[{r.size}]" for r in self.registers)
        return f"Circuit({regs}; {len(self.instructions)} instructions)"
