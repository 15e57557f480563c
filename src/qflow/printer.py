"""Circuit-to-QASM text printer.

``parse_qasm(print_qasm(c))`` reproduces ``c`` structurally: parameters are
emitted with ``repr`` of the Python float or int they equal (a numpy scalar
too), the shortest decimal that round-trips to the same IEEE-754 double.
Gate definitions pulled in by ``include`` are not re-printed (the include
line restores them on re-parse). A circuit that would not read back
raises :class:`QasmError`: its registers and instructions meet the one
rule of :mod:`qflow.circuit`, for source statements (``Rule.source``). A
flat circuit meets it in ``Circuit.resolve``, whose resolution it keeps,
so a circuit resolved before (a transpiled one, say) is not checked again.

Each distinct instruction is checked and formatted once, in a memo that
lives for one call, keyed by the instruction's fields: an equal instruction
gets the same line and the same verdict, and a hit skips the check. Equal
numbers can print differently (``0.0 == -0.0``, ``1 == 1.0 == True``) and
meet the rule differently (an index ``True`` equals 1), so an instruction
with a parameter that is not a nonzero float, or an operand index or
``if`` value that is not an int, bypasses the memo, as does one with a
field that cannot be hashed (a list built in Python); each is checked, and
printed, as it would be alone.
A memo that holds more than 1024 lines, over half of the instructions so
far, is dropped: the circuit does not repeat, and lookups would cost more
than they save.
"""

from __future__ import annotations

from numbers import Integral

from .circuit import (
    BinOp,
    Circuit,
    Const,
    FormalRef,
    FuncCall,
    GateDef,
    Instruction,
    Neg,
    ParamExpr,
    Rule,
)
from .errors import QasmError

__all__ = ["print_qasm"]

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_MEMO_FLOOR = 1024  # see the module docstring


def _fmt_expr(expr: ParamExpr, parent_prec: int = 0) -> str:
    if isinstance(expr, Const):
        # a negative literal reads back as a negation, so it is bracketed
        # where a Neg would be: (-2.0)^a, not -2.0^a = -(2.0^a)
        text = repr(expr.value)
        return f"({text})" if text[0] == "-" and parent_prec > _PREC["neg"] else text
    if isinstance(expr, FormalRef):
        return expr.name
    if isinstance(expr, Neg):
        inner = _fmt_expr(expr.operand, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(expr, BinOp):
        prec = _PREC[expr.op]
        # left-associative chains keep the left side at own precedence;
        # the right side needs one level more (except right-associative ^)
        left = _fmt_expr(expr.left, prec if expr.op != "^" else prec + 1)
        right = _fmt_expr(expr.right, prec + 1 if expr.op != "^" else prec)
        text = f"{left}{expr.op}{right}"
        return f"({text})" if parent_prec > prec else text
    if isinstance(expr, FuncCall):
        return f"{expr.fn}({_fmt_expr(expr.arg)})"
    raise TypeError(f"not a parameter expression: {expr!r}")


def _fmt_operand(operand) -> str:
    reg, idx = operand
    return reg if idx is None else f"{reg}[{idx}]"


def _memo_key(instr: Instruction) -> tuple | None:
    """``instr``'s fields, or None where an equal instruction could print
    another line; raises as reading a malformed field would."""
    for p in instr.params:
        if type(p) is not float or not p:
            return None
    for _, idx in instr.qubits + instr.clbits if instr.clbits else instr.qubits:
        if type(idx) is not int and idx is not None:
            return None
    if instr.condition is not None and type(instr.condition[1]) is not int:
        return None
    return (instr.opcode, instr.params, instr.qubits, instr.clbits, instr.condition)


def _fmt_instruction(instr: Instruction) -> str:
    prefix = ""
    if instr.condition is not None:
        creg, value = instr.condition
        prefix = f"if({creg}=={int(value)}) "
    opcode, params, qubits = instr.opcode, instr.params, instr.qubits
    if opcode == "measure":
        return f"{prefix}measure {_fmt_operand(qubits[0])} -> {_fmt_operand(instr.clbits[0])};"
    if opcode == "delay":
        return f"{prefix}delay {_fmt_operand(qubits[0])}, {params[0]};"
    ops = ",".join(map(_fmt_operand, qubits))
    if opcode == "barrier":
        return f"{prefix}barrier {ops};"
    if params:
        try:
            args = ",".join(map(float.__repr__, params))  # a float subclass prints as a float
        except TypeError:  # another real prints as the int or float it equals
            args = ",".join(repr(int(p) if isinstance(p, Integral) else float(p)) for p in params)
        return f"{prefix}{opcode}({args}) {ops};"
    return f"{prefix}{opcode} {ops};"


def _fmt_gate_def(gd: GateDef) -> list[str]:
    header = gd.name
    if gd.params:
        header += f"({','.join(gd.params)})"
    header += " " + ",".join(gd.qubits)
    if gd.opaque:
        return [f"opaque {header};"]
    lines = [f"gate {header} {{"]
    for b in gd.body:
        ops = ",".join(gd.qubits[i] for i in b.qubits)
        if b.opcode == "barrier":
            lines.append(f"  barrier {ops};")
        elif b.params:
            args = ",".join(_fmt_expr(p) for p in b.params)
            lines.append(f"  {b.opcode}({args}) {ops};")
        else:
            lines.append(f"  {b.opcode} {ops};")
    lines.append("}")
    return lines


def print_qasm(circuit: Circuit) -> str:
    """Render a circuit as OpenQASM 2.0 text."""
    rule = Rule(circuit, macros=True)
    # a flat circuit that resolves has met the rule once, for every line
    checked = False
    if not circuit.gate_defs and not circuit.includes:
        try:
            circuit.resolve()
            checked = True
        except QasmError:
            pass  # a register-wide operand is checked below; any other error recurs there
    lines = ["OPENQASM 2.0;"]
    for inc in circuit.includes:
        lines.append(f'include "{inc}";')
    for gd in circuit.gate_defs:
        if not gd.from_include:
            lines.extend(_fmt_gate_def(gd))
    for reg in circuit.registers:
        kw = "qreg" if reg.kind == "q" else "creg"
        lines.append(f"{kw} {reg.name}[{reg.size}];")
    memo: dict[tuple, str] | None = {}  # see the module docstring
    for k, instr in enumerate(circuit.instructions):
        key = line = None
        if memo is not None:
            try:
                key = _memo_key(instr)
                line = memo.get(key)
            except (TypeError, ValueError, IndexError):  # a malformed or unhashable field
                key = None
        if line is None:
            if not checked:
                rule.source(instr, k)
            line = _fmt_instruction(instr)
            if key is not None:
                memo[key] = line
                if len(memo) > _MEMO_FLOOR + k // 2:
                    memo = None
        lines.append(line)
    return "\n".join(lines) + "\n"
