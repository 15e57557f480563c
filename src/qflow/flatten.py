"""Macro expansion and register broadcast.

``flatten`` rewrites a circuit so that every instruction is a builtin gate
(or measure/barrier/reset/delay) acting on concrete wires: user gate macros
are inlined recursively with exact parameter substitution (a conditioned
call's condition goes to every gate of its body; a body barrier stays
unconditioned, as QASM 2 has no conditioned barrier), and register-wide
statements like ``measure q -> c;`` or ``h q;`` are expanded per wire.
A macro call meets the circuit rule (``Rule.source``) first, so one with
the wrong number of qubits or parameters is never expanded.
Flattened circuits carry no gate definitions or includes, and their
instructions are checked by ``Circuit.resolve``, whose resolution they
keep: each instruction is checked once, and each macro call once more,
before its expansion. A circuit that is flat already comes back as it is,
and one that calls no gate definition and has no register-wide operand
(a parsed circuit under ``include "qelib1.inc"``, say) as its registers and
instructions, once ``Rule`` has checked its declarations. Macro nesting
(``MAX_EXPANSION_DEPTH``) and the output size (``MAX_EXPANSION_INSTRUCTIONS``)
are bounded, and both bounds are checked before any instruction is emitted.
A parameter expression that fails inside a macro body names that gate and
the index (from 0) of the circuit instruction whose call expanded it.
"""

from __future__ import annotations

from .circuit import Circuit, Instruction, Rule, broadcast_call, eval_expr
from .errors import QasmError

__all__ = ["flatten", "MAX_EXPANSION_DEPTH", "MAX_EXPANSION_INSTRUCTIONS"]

MAX_EXPANSION_DEPTH = 1000
# k nested doubling macros expand to 2**k instructions, so the output size
# is bounded apart from the depth
MAX_EXPANSION_INSTRUCTIONS = 2**20


def _plain(instr: Instruction, defs: dict) -> bool:
    """Whether statement ``instr`` is its own one call: it calls no macro and
    names no register-wide operand. False for a malformed field, which
    ``Rule.source`` then names."""
    try:
        if instr.opcode in defs:
            return False
        for _, i in instr.qubits + instr.clbits:
            if i is None:
                return False
    except (TypeError, ValueError):
        return False
    return True


def _broadcast(instr: Instruction, k: int, rule: Rule, sizes: dict) -> tuple:
    """The calls of statement k, a macro call or a register-wide statement,
    which meets ``Rule.source`` first."""
    width = rule.source(instr, k)
    if width is None:
        return (instr,)
    if instr.opcode == "barrier":
        # a register-wide barrier synchronizes all of the register's wires
        # as a single instruction, not one barrier per wire
        ops = tuple((reg, j) for reg, idx in instr.qubits
                    for j in (range(sizes[reg]) if idx is None else (idx,)))
        return (Instruction("barrier", (), ops, (), instr.condition),)
    return tuple(broadcast_call(instr, j) for j in range(width))


def flatten(circuit: Circuit) -> Circuit:
    """Inline all gate macros and expand register-wide statements, and
    check the result with ``Circuit.resolve``. A circuit that is already
    flat (no gate definitions, no includes, no register-wide operand) is
    returned as it is; one whose statements are each their own call comes
    back as its registers and instructions, each instruction checked once."""
    if (not circuit.gate_defs and not circuit.includes
            and len(circuit.instructions) <= MAX_EXPANSION_INSTRUCTIONS):
        try:
            circuit.resolve()
            return circuit
        except QasmError:
            pass  # a register-wide operand is expanded below; any other error recurs there
    rule = Rule(circuit, macros=True)
    defs = {gd.name: gd for gd in circuit.gate_defs}
    plain = [_plain(instr, defs) for instr in circuit.instructions]
    if all(plain) and len(plain) <= MAX_EXPANSION_INSTRUCTIONS:
        flat = Circuit(circuit.registers, circuit.instructions)
        flat.resolve()
        return flat
    sizes = {r.name: r.size for r in circuit.registers}
    calls = [(k, call) for k, instr in enumerate(circuit.instructions)
             for call in ((instr,) if plain[k] else _broadcast(instr, k, rule, sizes))]
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

    total = len(calls) + sum(shape(c.opcode)[0] - 1 for _, c in calls if c.opcode in defs)
    if total > MAX_EXPANSION_INSTRUCTIONS:
        raise QasmError(
            f"gate expansion would emit {total} instructions, "
            f"more than {MAX_EXPANSION_INSTRUCTIONS}"
        )

    for k, call in calls:
        if call.opcode not in defs:
            out.append(call)
            continue
        stack = [call]
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
                            tuple([eval_expr(e, env) for e in body.params]),
                            tuple([instr.qubits[i] for i in body.qubits]),
                            (),
                            # a barrier is not a qop, so no if applies to it
                            None if body.opcode == "barrier" else instr.condition,
                        )
                    )
            except QasmError as exc:
                raise QasmError(
                    f"{exc.message} (in gate '{gd.name}', called by instruction {k})"
                ) from None

    flat = Circuit(registers=circuit.registers, instructions=tuple(out))
    flat.resolve()
    return flat
