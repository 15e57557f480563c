"""Macro expansion and register broadcast.

``flatten`` rewrites a circuit so that every instruction is a builtin gate
(or measure/barrier/reset/delay) acting on concrete wires: user gate macros
are inlined recursively with exact parameter substitution (a conditioned
call's condition goes to every gate of its body; a body barrier stays
unconditioned, as QASM 2 has no conditioned barrier), and register-wide
statements like ``measure q -> c;`` or ``h q;`` are expanded per wire.
Flattened circuits carry no gate definitions or includes, and their
instructions are checked by ``Circuit.resolve``, whose resolution they
keep; a circuit that is flat already comes back as it is. Macro nesting
(``MAX_EXPANSION_DEPTH``) and the output size (``MAX_EXPANSION_INSTRUCTIONS``)
are bounded, and both bounds are checked before any instruction is emitted.
A parameter expression that fails inside a macro body names that gate and
the index (from 0) of the circuit instruction whose call expanded it.
"""

from __future__ import annotations

from .circuit import Circuit, Instruction, eval_expr
from .errors import QasmError

__all__ = ["flatten", "MAX_EXPANSION_DEPTH", "MAX_EXPANSION_INSTRUCTIONS"]

MAX_EXPANSION_DEPTH = 1000
# k nested doubling macros expand to 2**k instructions, so the output size
# is bounded apart from the depth
MAX_EXPANSION_INSTRUCTIONS = 2**20


def _broadcast(instr: Instruction, reg_sizes: dict[str, int]) -> list[Instruction]:
    wide_q = [i for i, (_, idx) in enumerate(instr.qubits) if idx is None]
    wide_c = [i for i, (_, idx) in enumerate(instr.clbits) if idx is None]
    if not wide_q and not wide_c:
        return [instr]
    for reg, idx in instr.qubits + instr.clbits:
        if idx is None and reg not in reg_sizes:
            raise QasmError(f"undeclared register '{reg}'")

    if instr.opcode == "barrier":
        # a register-wide barrier synchronizes all of the register's wires
        # as a single instruction, not one barrier per wire
        ops = []
        for reg, idx in instr.qubits:
            if idx is None:
                ops.extend((reg, k) for k in range(reg_sizes[reg]))
            else:
                ops.append((reg, idx))
        return [Instruction("barrier", (), tuple(ops), (), instr.condition)]

    sizes = {reg_sizes[instr.qubits[i][0]] for i in wide_q}
    sizes |= {reg_sizes[instr.clbits[i][0]] for i in wide_c}
    if len(sizes) != 1:
        raise QasmError(
            f"register broadcast size mismatch in '{instr.opcode}' statement"
        )
    m = sizes.pop()
    out = []
    for k in range(m):
        qs = tuple((r, k if idx is None else idx) for r, idx in instr.qubits)
        cs = tuple((r, k if idx is None else idx) for r, idx in instr.clbits)
        out.append(Instruction(instr.opcode, instr.params, qs, cs, instr.condition))
    return out


def flatten(circuit: Circuit) -> Circuit:
    """Inline all gate macros and expand register-wide statements, and
    check the result with ``Circuit.resolve``. A circuit that is already
    flat (no gate definitions, no includes, no register-wide operand) is
    returned as it is."""
    if (not circuit.gate_defs and not circuit.includes
            and len(circuit.instructions) <= MAX_EXPANSION_INSTRUCTIONS):
        try:
            circuit.resolve()
            return circuit
        except QasmError:
            pass  # a register-wide operand is expanded below; any other error recurs there
    defs = {gd.name: gd for gd in circuit.gate_defs}
    reg_sizes = {r.name: r.size for r in circuit.registers}
    out: list[Instruction] = []
    # per macro: (instructions one call emits, macros on its longest chain)
    shapes: dict[str, tuple[int, int]] = {}

    def too_deep(name: str) -> QasmError:
        return QasmError(
            f"gate expansion exceeded depth {MAX_EXPANSION_DEPTH} while inlining '{name}'"
        )

    def shape(root: str) -> tuple[int, int]:
        # post-order walk; the path bound also ends a recursive definition
        path = [] if root in shapes else [root]
        while path:
            name = path[-1]
            body = defs[name].body
            child = next(
                (b.opcode for b in body if b.opcode in defs and b.opcode not in shapes), None
            )
            if child is not None:
                if len(path) >= MAX_EXPANSION_DEPTH:
                    raise too_deep(child)
                path.append(child)
                continue
            size = sum(shapes[b.opcode][0] if b.opcode in defs else 1 for b in body)
            height = 1 + max((shapes[b.opcode][1] for b in body if b.opcode in defs), default=0)
            if height > MAX_EXPANSION_DEPTH:
                raise too_deep(name)
            shapes[name] = (size, height)
            path.pop()
        return shapes[root]

    concrete = [c for instr in circuit.instructions for c in _broadcast(instr, reg_sizes)]
    total = sum(shape(c.opcode)[0] if c.opcode in defs else 1 for c in concrete)
    if total > MAX_EXPANSION_INSTRUCTIONS:
        raise QasmError(
            f"gate expansion would emit {total} instructions, "
            f"more than {MAX_EXPANSION_INSTRUCTIONS}"
        )

    stack = concrete[::-1]
    while stack:
        instr = stack.pop()
        gd = defs.get(instr.opcode)
        if gd is None:
            out.append(instr)
            continue
        if gd.opaque:
            raise QasmError(f"cannot expand opaque gate '{gd.name}' (no body)")
        env = dict(zip(gd.params, instr.params))
        try:
            for body in reversed(gd.body):
                stack.append(
                    Instruction(
                        body.opcode,
                        tuple(eval_expr(e, env) for e in body.params),
                        tuple(instr.qubits[i] for i in body.qubits),
                        (),
                        # a barrier is not a qop, so no if applies to it
                        None if body.opcode == "barrier" else instr.condition,
                    )
                )
        except QasmError as exc:
            # the bottom of the stack still holds the concrete instructions
            # not yet started (expansions are new objects); the one being
            # expanded is the last started, in the circuit instruction
            # whose broadcast holds it
            pending = 0
            while pending < len(stack) and stack[pending] is concrete[-1 - pending]:
                pending += 1
            started = len(concrete) - pending
            for index, statement in enumerate(circuit.instructions):
                started -= len(_broadcast(statement, reg_sizes))
                if started <= 0:
                    break
            raise QasmError(
                f"{exc.message} (in gate '{gd.name}', called by instruction {index})"
            ) from None

    flat = Circuit(
        registers=circuit.registers,
        instructions=tuple(out),
        gate_defs=(),
        includes=(),
        source_name=circuit.source_name,
    )
    flat.resolve()
    return flat
