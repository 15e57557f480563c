"""Circuit-to-QASM text printer.

``parse_qasm(print_qasm(c))`` reproduces ``c`` structurally: parameters are
emitted with ``repr``, the shortest decimal that round-trips to the same
IEEE-754 double. Gate definitions pulled in by ``include`` are not re-printed
(the include line restores them on re-parse). An instruction of the wrong
shape (:func:`qflow.circuit.shape_error`) raises :class:`QasmError`, as it
would not read back; macro calls and operands are not checked.
"""

from __future__ import annotations

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
    SHAPES,
    shape_error,
)
from .errors import QasmError

__all__ = ["print_qasm"]

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


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


def _fmt_instruction(instr: Instruction) -> str:
    prefix = ""
    if instr.condition is not None:
        creg, value = instr.condition
        prefix = f"if({creg}=={value}) "
    if instr.opcode == "measure":
        return (
            f"{prefix}measure {_fmt_operand(instr.qubits[0])} -> "
            f"{_fmt_operand(instr.clbits[0])};"
        )
    if instr.opcode == "delay":
        return f"{prefix}delay {_fmt_operand(instr.qubits[0])}, {instr.params[0]};"
    ops = ",".join(_fmt_operand(q) for q in instr.qubits)
    if instr.opcode == "barrier":
        return f"{prefix}barrier {ops};"
    if instr.params:
        args = ",".join(repr(p) for p in instr.params)
        return f"{prefix}{instr.opcode}({args}) {ops};"
    return f"{prefix}{instr.opcode} {ops};"


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
    lines = ["OPENQASM 2.0;"]
    for inc in circuit.includes:
        lines.append(f'include "{inc}";')
    for gd in circuit.gate_defs:
        if not gd.from_include:
            lines.extend(_fmt_gate_def(gd))
    for reg in circuit.registers:
        kw = "qreg" if reg.kind == "q" else "creg"
        lines.append(f"{kw} {reg.name}[{reg.size}];")
    macros = {gd.name for gd in circuit.gate_defs}
    for k, instr in enumerate(circuit.instructions):
        shape = SHAPES.get(instr.opcode)  # the common shapes pass, as in Circuit.resolve
        if (shape is None or shape[0] != len(instr.qubits) or shape[1] != len(instr.params)
                or shape[2] != len(instr.clbits)) and instr.opcode not in macros:
            why = shape_error(instr)
            if why is not None:
                raise QasmError(f"instruction {k}: {why}")
        lines.append(_fmt_instruction(instr))
    return "\n".join(lines) + "\n"
