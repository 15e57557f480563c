"""In-memory circuit representation.

A :class:`Circuit` is an ordered list of flat instructions over declared
quantum and classical registers: library gates, ``measure``, ``reset``,
``barrier`` and ``delay``, each on single wires. ``parse_qasm`` expands
gate macros and register-wide statements as it reads them, so no other
form exists. Instances are treated as immutable once constructed; every
transformation in the toolchain returns a new circuit. Equality is
structural: registers and the instruction sequence, with parameters
compared by float ``==``, so ``0.0`` equals ``-0.0`` although the two
print and encode differently.

Wire numbering is little-endian and global: quantum registers occupy
consecutive wire indices in declaration order, and qubit 0 is the least
significant bit of a basis-state index. Classical bits are numbered the same
way over classical registers.

:meth:`Circuit.resolve` alone applies this numbering: later stages read
its :class:`Resolution`, built on first use, kept outside equality and
``repr``, and rebuilt when any field is replaced. Only :func:`derived`
installs one otherwise: the transpiler builds its decomposed and output
circuits from a resolved circuit, knows each instruction's wires, and
hands them to it; it checks the registers, and the instructions with
clbits or an ``if``, which give the rest of the resolution.
``resolve`` is also the one check of a circuit (:class:`Rule`); a circuit it
accepts prints as text that ``parse_qasm`` reads back equal and encodes as
bytes that ``decode_binary`` reads back equal, unless a value is too wide
for the encoder. The rule:

- registers are :class:`Register` objects with distinct identifier
  names, kind ``"q"`` or ``"c"`` and an int size from 1 to
  :data:`MAX_REGISTER_SIZE` (not a bool), which keeps an ``if`` mask at
  2 MiB or less;
- an instruction has the shape :data:`SHAPES` gives its opcode: qubit,
  parameter and clbit counts, a delay's nonnegative int cycle count, a
  barrier's one qubit or more and no ``if`` on a barrier;
- its operands are a tuple of ``(register name, index)`` tuples, each an
  int index (not a bool or ``None``) in range of a declared register of
  the right kind; a gate names each wire once;
- its parameters are a tuple of finite reals, each equal to the double
  it converts to (a delay count need only be finite as a double);
- its ``if`` condition names a declared classical register and an int of
  at least 0.

A failure raises :class:`QasmError`, prefixed ``instruction k:`` for an
instruction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import QasmError
from .gates import LIBRARY, parameter_error

__all__ = ["Register", "Instruction", "Circuit", "Resolution"]

# opcode -> (qubit count, parameter count, clbit count) of a flat
# instruction: a library gate or one of the four statements. None marks a
# count with a rule of its own in instruction_error (a barrier takes one
# qubit or more, a delay one integer cycle count)
SHAPES = {name: (spec.arity, spec.param_count, 0) for name, spec in LIBRARY.items()}
SHAPES.update(measure=(1, 0, 1), reset=(1, 0, 0), delay=(1, None, 0), barrier=(None, 0, 0))
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # the parser's identifier token
MAX_REGISTER_SIZE = 2**24  # the most wires in one register


def instruction_error(instr) -> str | None:
    """Why ``instr`` breaks the rule of the module docstring, or None; its
    registers, indices and repeated wires are left to :class:`Rule`."""
    opcode, params, qubits, clbits = instr.opcode, instr.params, instr.qubits, instr.clbits
    for ops in (qubits, clbits):
        for op in ops if isinstance(ops, tuple) else (None,):
            if not isinstance(op, tuple) or len(op) != 2 or type(op[0]) is not str:
                return f"operands must be a tuple of (register, index) tuples, got {ops!r}"
    if type(params) is not tuple:
        return f"parameters must be a tuple, got {params!r}"
    for p in params:
        if type(p) is float and not p - p:  # a finite float, the common case
            continue
        why = parameter_error(p)
        # a delay count is an int of its own rule, below, and need only be
        # finite as a double
        if why is not None and not (opcode == "delay" and why.endswith("equal to a double")):
            return why
    shape = SHAPES.get(opcode) if type(opcode) is str else None
    if shape is None:
        return f"undeclared gate {opcode!r}"
    arity, n_params, n_clbits = shape
    why = None  # the first of the count rules that fails, named below
    if opcode == "delay":
        if len(params) != 1 or type(params[0]) is not int or params[0] < 0:
            return "delay cycle count must be a nonnegative integer"
    elif len(params) != n_params:
        why = f"takes {n_params} parameter(s), got {len(params)}"
    if why is None and arity is None and not qubits:
        return "a barrier needs at least one qubit"
    if why is None and arity is not None and len(qubits) != arity:
        why = f"acts on {arity} qubit(s), got {len(qubits)}"
    if why is None and len(clbits) != n_clbits:
        why = f"writes {n_clbits} clbit(s), got {len(clbits)}"
    if why is not None:
        return ("gate " if opcode in LIBRARY or opcode not in SHAPES else "") + f"'{opcode}' {why}"
    condition = instr.condition
    if condition is None:
        return None
    if opcode == "barrier":
        return "a barrier cannot be conditioned"
    if type(condition) is not tuple or len(condition) != 2 or type(condition[0]) is not str:
        return f"an if condition must be a (register, integer) pair, got {condition!r}"
    value = condition[1]
    if not isinstance(value, int):
        return f"if value {value!r} is not an integer"
    return f"if value {value} is negative" if value < 0 else None


@dataclass(frozen=True, slots=True)
class Register:
    """A named quantum ("q") or classical ("c") register."""

    name: str
    kind: str
    size: int


# --------------------------------------------------------------------------
# Instructions.
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Instruction:
    """One flat instruction.

    ``qubits`` and ``clbits`` hold ``(register_name, index)`` pairs.
    ``params`` is a tuple of real numbers (floats when parsed); ``delay``
    takes one integer cycle count.
    ``condition`` is an optional ``(creg_name, value)`` pair from an ``if``.
    Nothing is checked on construction: :meth:`Circuit.resolve` is the one
    check of an instruction's shape and operands.
    """

    opcode: str
    params: tuple = ()
    qubits: tuple = ()
    clbits: tuple = ()
    condition: tuple | None = None

    # the dataclass __init__ of a frozen class stores each field through
    # object.__setattr__; the slot descriptors store them at about half
    # the cost, and the toolchain builds thousands of instructions per job
    def __init__(self, opcode, params=(), qubits=(), clbits=(), condition=None):
        _set_opcode(self, opcode)
        _set_params(self, params)
        _set_qubits(self, qubits)
        _set_clbits(self, clbits)
        _set_condition(self, condition)


_set_opcode, _set_params, _set_qubits, _set_clbits, _set_condition = (
    Instruction.__dict__[name].__set__
    for name in ("opcode", "params", "qubits", "clbits", "condition"))


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


class Rule:
    """The one check of a circuit (see the module docstring): its registers
    when built, then one instruction per call."""

    __slots__ = ("regs",)

    def __init__(self, circuit: "Circuit"):
        self.regs: dict[str, tuple] = {}  # name -> (kind, size, global index of its bit 0)
        first = {"q": 0, "c": 0}
        for reg in circuit.registers:
            if type(reg) is not Register:
                raise QasmError(f"register {reg!r} is not a Register")
            name, kind, size = reg.name, reg.kind, reg.size
            if type(name) is not str or not _IDENTIFIER.fullmatch(name) or name in self.regs:
                raise QasmError(f"register name {name!r} is declared twice or not an identifier")
            if (kind not in ("q", "c") or type(size) is not int
                    or not 1 <= size <= MAX_REGISTER_SIZE):
                raise QasmError(f"register '{name}' needs kind 'q' or 'c' and an int size "
                                f"from 1 to {MAX_REGISTER_SIZE}, not {kind!r} and {size!r}")
            self.regs[name] = (kind, size, first[kind])
            first[kind] += size

    def check(self, instr, k: int) -> tuple:
        """``instr``'s (wires, clbits, ``if`` test), or a QasmError prefixed
        ``instruction k:`` that names a rule it breaks."""
        why = instruction_error(instr)
        if why is None:
            ws = self._indices(instr.qubits, "q", k)
            if instr.opcode != "barrier" and len(ws) > 1 and len(set(ws)) != len(ws):
                why = f"duplicate qubit operand in '{instr.opcode}'"
        if why is not None:
            raise QasmError(f"instruction {k}: {why}")
        test = None
        if instr.condition is not None:
            name, value = instr.condition
            (offset,) = self._indices(((name, 0),), "c", k)
            test = (offset, (1 << self.regs[name][1]) - 1, value)
        return ws, instr.clbits and self._indices(instr.clbits, "c", k), test

    def _indices(self, operands: tuple, kind: str, k: int) -> tuple:
        out = []
        for name, idx in operands:
            reg = self.regs.get(name)
            if reg and reg[0] == kind and type(idx) is int and 0 <= idx < reg[1]:
                out.append(reg[2] + idx)
                continue
            if reg is None:
                why = f"undeclared register '{name}'"
            elif reg[0] != kind:
                why = f"'{name}' is not a {'quantum' if kind == 'q' else 'classical'} register"
            elif type(idx) is not int:
                why = f"index {idx!r} of '{name}' is not an int"
            else:
                why = f"index {idx} out of range for {name}[{reg[1]}]"
            raise QasmError(f"instruction {k}: {why}")
        return tuple(out)


@dataclass(eq=True)
class Circuit:
    registers: tuple = ()
    instructions: tuple = ()

    # (instructions, registers, Resolution) of the last resolve(); not a field
    _resolved = None

    # -- register queries, each of which checks the registers (see Rule) ----

    @property
    def n_qubits(self) -> int:
        return sum(reg[1] for reg in Rule(self).regs.values() if reg[0] == "q")

    @property
    def n_clbits(self) -> int:
        return sum(reg[1] for reg in Rule(self).regs.values() if reg[0] == "c")

    def resolve(self) -> Resolution:
        """The operands as global indices, checked; see the module docstring."""
        cached = self._resolved
        if cached and cached[0] is self.instructions and cached[1] is self.registers:
            return cached[2]
        check = Rule(self).check
        known: dict[tuple, tuple] = {}  # qubit operands that passed, outside a barrier
        wires: list[tuple] = []
        clbits: dict[int, tuple] = {}
        conditions: dict[int, tuple] = {}
        add = wires.append
        for k, instr in enumerate(self.instructions):
            qubits, params = instr.qubits, instr.params
            try:
                ws, shape = known.get(qubits), SHAPES.get(instr.opcode)
            except TypeError:  # unhashable operands or opcode, which check names
                ws = shape = None
            # a gate on one or two qubits that passed before, with no clbit or
            # if and finite floats for parameters (p - p is nan for nan and
            # inf), passes here; an index equal to an int may not be one
            if (ws and shape and shape[0] == len(ws) < 3 and not shape[2]
                    and not instr.clbits and instr.condition is None
                    and type(qubits[0][1]) is int and type(qubits[-1][1]) is int
                    and type(params) is tuple and shape[1] == len(params)):
                for p in params:
                    if type(p) is not float or p - p:
                        break
                else:
                    add(ws)
                    continue
            ws, cbits, test = check(instr, k)
            add(ws)
            if instr.opcode != "barrier":
                known[qubits] = ws
            if cbits:
                clbits[k] = cbits
            if test is not None:
                conditions[k] = test
        resolution = Resolution(tuple(wires), clbits, conditions)
        self._resolved = (self.instructions, self.registers, resolution)
        return resolution

    # -- convenience --------------------------------------------------------

    def with_instructions(self, instructions) -> "Circuit":
        return Circuit(self.registers, tuple(instructions))

    def __repr__(self) -> str:  # keep huge circuits printable
        regs = ", ".join(f"{r.name}[{r.size}]" for r in self.registers)
        return f"Circuit({regs}; {len(self.instructions)} instructions)"


def derived(circuit: Circuit, wires: list) -> Circuit:
    """Install the resolution of ``circuit``, which a pipeline stage built
    from a resolved circuit and whose instruction k it placed on the global
    wires ``wires[k]``, and return the circuit. The registers are checked
    as ``resolve`` checks them, and so is each instruction that has clbits
    or an ``if``, which gives those parts; the gates, which the stage built
    from checked ones, are not checked again."""
    rule = Rule(circuit)
    clbits: dict[int, tuple] = {}
    conditions: dict[int, tuple] = {}
    for k, instr in enumerate(circuit.instructions):
        if instr.clbits or instr.condition is not None:
            _, cbits, test = rule.check(instr, k)
            if cbits:
                clbits[k] = cbits
            if test is not None:
                conditions[k] = test
    circuit._resolved = (circuit.instructions, circuit.registers,
                         Resolution(tuple(wires), clbits, conditions))
    return circuit
