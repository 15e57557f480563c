"""Circuit-to-QASM text printer.

``parse_qasm(print_qasm(c))`` reproduces ``c`` structurally: parameters are
emitted with ``repr`` of the Python float or int they equal (a numpy scalar
too), the shortest decimal that round-trips to the same IEEE-754 double.
The text declares the registers and lists the flat instructions; it needs
no include and defines no gate. A circuit that would not read back
raises :class:`QasmError`: ``Circuit.resolve`` checks it, and keeps its
resolution, so a circuit resolved before (a transpiled one, say) is not
checked again.

Each distinct instruction is formatted once, in a memo that lives for one
call: an equal instruction gets the same line. Equal numbers can print
differently (``0.0 == -0.0``, ``1 == 1.0 == True``), so an instruction with
a parameter that is not a nonzero float bypasses the memo and is printed
as it would be alone. A memo that holds more than 1024 lines, over half of
the instructions so far, is dropped: the circuit does not repeat, and
lookups would cost more than they save. An instruction with a field that
cannot be hashed (an ``if`` value of an int subclass without a hash, say)
bypasses the memo too.
"""

from __future__ import annotations

from numbers import Integral

from .circuit import Circuit, Instruction

__all__ = ["print_qasm"]

_MEMO_FLOOR = 1024  # see the module docstring


def _fmt_operand(operand) -> str:
    reg, idx = operand
    return f"{reg}[{idx}]"


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


def print_qasm(circuit: Circuit) -> str:
    """Render a circuit as OpenQASM 2.0 text."""
    circuit.resolve()
    lines = ["OPENQASM 2.0;"]
    for reg in circuit.registers:
        kw = "qreg" if reg.kind == "q" else "creg"
        lines.append(f"{kw} {reg.name}[{reg.size}];")
    memo: dict[tuple, str] | None = {}  # see the module docstring
    for k, instr in enumerate(circuit.instructions):
        key = line = None
        if memo is not None:
            for p in instr.params:
                if type(p) is not float or not p:
                    break
            else:
                key = (instr.opcode, instr.params, instr.qubits, instr.clbits, instr.condition)
                try:
                    line = memo.get(key)
                except TypeError:  # a field that cannot be hashed
                    key = None
        if line is None:
            line = _fmt_instruction(instr)
            if key is not None:
                memo[key] = line
                if len(memo) > _MEMO_FLOOR + k // 2:
                    memo = None
        lines.append(line)
    return "\n".join(lines) + "\n"
