"""OpenQASM 2.0 parser with the timing extension.

Produces a flat :class:`~qflow.circuit.Circuit`, which ``Circuit.resolve``
accepts: its registers and its instructions, each a library gate,
``measure``, ``reset``, ``barrier`` or ``delay`` on single wires. Beyond
standard QASM2 this accepts ``delay q[i], cycles;`` statements. Parameter
expressions are folded to doubles as they are read; only gate bodies keep
expressions over their formal parameters, private to this module.

A gate is a macro applied by substitution, as QASM 2 defines it, so each
call is expanded where it is read: every gate of its body, in order, with
its parameter expressions evaluated at the call exactly as the same
expressions with the actual values written in would fold. A conditioned
call's ``if`` goes to every gate of its body; a body barrier stays
unconditioned, as QASM 2 has no conditioned barrier. A body names only
gates defined before it. A register-wide statement such as ``h q;`` or
``measure q -> c;`` is one call per wire; a register-wide barrier is one
barrier on all of the register's wires. Macro nesting
(``MAX_EXPANSION_DEPTH``) and the output size
(``MAX_EXPANSION_INSTRUCTIONS``) are bounded, and both bounds are checked
at a statement before it emits any instruction. An expression that fails
inside a gate body names that gate, at the statement whose call expanded
it. An opaque gate cannot be called.

``include "qelib1.inc";`` resolves against the embedded copy; any other
include path is rejected, and so is an include that would define a macro
whose name a register or gate already holds. Library gates (everything in
:data:`qflow.gates.LIBRARY`) are callable whether or not the include is
present; the include adds its three-qubit macros (``ccx``, ``cswap``),
whose bodies call library gates.

A formal parameter is the expression node ``("arg", i)`` and only
numbers are leaves, so one rule folds a node over numbers as it is read, at
a call and in a template alike. One inliner expands a call, and, once at
import, each library gate's line down to U and CX with its own formals
as actuals. :func:`gate_template` evaluates that template at a call's
parameters; ``decompose_to_u_cx``, the stabilizer tableau and the
transpiler read a gate's u3/cx form from it, so each definition is
written once, in ``qelib1.py``.

The text is read statement by statement, by offset. Most statements are
library gate calls such as ``rz(-pi/4) q[3];`` or ``cx q[0],q[1];``, and
one regex match reads each of them (``_CALL_RE``): a gate name, arguments
that are each a number literal or ``[-]pi[/literal]``, and one or two
indexed operands. A match is taken only when every check the grammar
makes on that call passes (known gate not shadowed by a macro, parameter
count, arity, declared quantum registers, indices in range, no repeated
operand, finite values folded as the grammar folds them). Any other
statement, a match that fails a check included, falls back to the full
grammar. The tokenizer then reads that one statement, from its offset, into
``(kind, text, offset)`` tuples (a symbol's kind is its own text), and the
walk resumes after its last token. A token keeps only its offset: the line
and column of a :class:`QasmError` are worked out from it when the error
is raised. Top-level statements and gate bodies share one gate-call
grammar (``name(params) args;``), as in the QASM 2 grammar.

A character that no token takes is reported wherever it is, before any
other error: the fast path never matches one, the tokenizer raises on the
first it meets, and a grammar or expansion error first scans the rest of
the text for one and reports that instead.
"""

from __future__ import annotations

import math
import operator
import re
from typing import NoReturn

from .circuit import MAX_REGISTER_SIZE, Circuit, Instruction, Register
from .errors import QasmError
from .euler import reduce_angle
from .gates import LIBRARY
from .qelib1 import QELIB1_DEFS

__all__ = ["parse_qasm", "gate_template", "MAX_EXPANSION_DEPTH", "MAX_EXPANSION_INSTRUCTIONS"]

# whitespace and comments match ungrouped, so their lastgroup is None
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]+ | //[^\n]*
  | (?P<real>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"[^"\n]*")
  | (?P<sym>->|==|[()\[\]{};,+\-*/^])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# what the tokenizer skips between tokens, and so between statements
_SKIP_RE = re.compile(r"(?:[ \t\r\n]|//[^\n]*)*")

# The common statement, a library gate call on indexed operands (see the
# module docstring). A number is the tokenizer's real or int, and each
# piece ends where its token ends, so a match reads the tokens the grammar
# would read.
_NUMBER = r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
_ARG = rf"-?(?:{_NUMBER}|pi(?:/(?:{_NUMBER}))?)"
_CALL_RE = re.compile(
    rf"""
    ([A-Za-z_][A-Za-z0-9_]*)                              # gate name
    (?: \( ({_ARG}(?:,{_ARG})*) \) [ ]* | [ ]+ )           # arguments
    ([A-Za-z_][A-Za-z0-9_]*) \[ (\d+) \]                  # operand
    (?: ,[ ]* ([A-Za-z_][A-Za-z0-9_]*) \[ (\d+) \] )?     # second operand
    ;
    """,
    re.VERBOSE | re.ASCII,
)
# call name -> (opcode, parameter count, arity) of U, CX and each library
# gate; a macro shadows a library name, never U or CX
_CALLS = {name: (name, spec.param_count, spec.arity) for name, spec in LIBRARY.items()}
_CALLS.update(U=("u3", 3, 1), CX=("cx", 0, 2))

# an expression node's operator -> what computes it from its operands'
# values; a node is (operator, operand[, operand]), a formal parameter the
# node ("arg", index), and a leaf a number; "neg" negates
_FUNCS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp, "ln": math.log,
          "sqrt": math.sqrt}
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "^": operator.pow, "neg": operator.neg, **_FUNCS}

# Nesting bound for parameter expressions. Each level is a few Python
# frames of recursive descent, so this keeps deep input a QasmError well
# before the interpreter's recursion limit.
MAX_EXPR_DEPTH = 100

# the most macros on a chain of nested calls that one call expands
MAX_EXPANSION_DEPTH = 1000
# k nested doubling macros expand to 2**k instructions, so the output size
# is bounded apart from the depth
MAX_EXPANSION_INSTRUCTIONS = 2**20


def _position(text: str, off: int) -> tuple[int, int]:
    """(line, column) of an offset, both from 1."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _argument(text: str) -> float | None:
    """The value of an argument that ``_CALL_RE`` matched, folded as the
    grammar folds it (``-pi/2`` is ``(-pi)/2.0``, ``-0`` is ``-0.0``), or
    None where the grammar raises an error."""
    negative = text[0] == "-"
    if negative:
        text = text[1:]
    if text[0] != "p":
        value = float(text)
        if value - value:  # inf
            return None
        return -value if negative else value
    value = -math.pi if negative else math.pi
    if len(text) > 2:
        divisor = float(text[3:])
        if not divisor or divisor - divisor:
            return None
        value /= divisor
        if value - value:
            return None
    return value


def _node(op: str, args) -> float | tuple:
    """The node of ``op`` over ``args``, or its value where no operand is a
    node, which must be a finite real. Division by zero, a math domain or
    range error, an infinite or NaN result and the complex result of a
    negative base to a fractional power raise :class:`QasmError` without a
    position."""
    for arg in args:
        if type(arg) is tuple:
            return (op, *args)
    try:
        value = _OPS[op](*args)
        # math.isfinite raises TypeError on a complex value
        if not math.isfinite(value):
            raise OverflowError(f"result {value} is not finite")
    except (ZeroDivisionError, ValueError, OverflowError, TypeError) as exc:
        raise QasmError(f"invalid constant expression: {exc}") from None
    return value


def _substituted(expr, actuals: tuple):
    """``expr`` with each formal ``("arg", i)`` replaced by ``actuals[i]``
    and every node over numbers folded by :func:`_node`: a value where the
    actuals are numbers, as the parser folds the same expression with the
    values written in, and otherwise an expression over theirs."""
    if type(expr) is not tuple:
        return expr
    if expr[0] == "arg":
        return actuals[expr[1]]
    return _node(expr[0], [_substituted(e, actuals) for e in expr[1:]])


def _inline(macro: _Macro, params: tuple, qubits: tuple):
    """The gates of one call of ``macro`` at parameters ``params`` (numbers
    or expressions) on operands ``qubits``, in body order with each nested
    call inlined in place, as (library opcode or ``"barrier"``, parameters,
    operands) triples. An expression that fails, or an opaque gate, raises
    :class:`QasmError` naming the gate."""
    stack = [(macro, params, qubits)]
    while stack:
        target, params, qubits = stack.pop()
        if type(target) is str:
            yield target, params, qubits
            continue
        if target.body is None:
            raise QasmError(f"cannot expand opaque gate '{target.name}' (no body)")
        try:
            for body, exprs, idx in reversed(target.body):
                stack.append((body, tuple([_substituted(e, params) for e in exprs]),
                              tuple([qubits[i] for i in idx])))
        except QasmError as exc:
            raise QasmError(f"{exc.message} (in gate '{target.name}')") from None


class _Macro:
    """A gate definition: its formal parameter names, its qubit count, and
    its body, or None for an opaque gate. Each body statement is a
    (library opcode or _Macro, parameter expressions over the formals
    ``("arg", i)``, formal qubit indices) triple, which :func:`_inline`
    expands. One call emits ``size`` instructions through ``height``
    nested macros, itself included."""

    __slots__ = ("name", "params", "arity", "body", "size", "height")

    def __init__(self, name: str, params: tuple, arity: int, body: tuple | None):
        self.name, self.params, self.arity, self.body = name, params, arity, body
        calls = [target for target, _, _ in body or () if type(target) is _Macro]
        self.size = len(body or ()) + sum(m.size - 1 for m in calls)
        self.height = 1 + max((m.height for m in calls), default=0)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple] = []  # the current statement's, read by _read
        self.i = 0
        self.scan = _TOKEN_RE.finditer(text)
        self.registers: list[Register] = []
        self.reg_map: dict[str, Register] = {}
        self.macros: dict[str, _Macro] = {}  # the gate definitions, the include's among them
        self.included = False
        self.instructions: list[Instruction] = []
        self.expr_depth = 0

    # -- token helpers -------------------------------------------------------

    def _read(self):
        """Tokenize the next statement from ``scan`` into ``tokens``: up to
        its first ``;``, or, once a ``{`` opens a gate body, its first
        ``}``; or to the end of the text and an ``eof`` token. The grammar
        ends a statement there, or raises an error on the way, so it never
        reads past the last of these tokens."""
        tokens = self.tokens = []
        self.i = 0
        end = ";"
        for m in self.scan:
            kind = m.lastgroup
            if kind is None:
                continue
            value = m.group()
            if kind == "sym":
                kind = value
            elif kind == "bad":
                raise QasmError(f"unexpected character {value!r}", *_position(self.text, m.start()))
            tokens.append((kind, value, m.start()))
            if kind == end:
                return
            if kind == "{":
                end = "}"
        tokens.append(("eof", "", len(self.text)))

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def next(self) -> tuple:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> tuple:
        tok = self.next()
        if tok[0] != kind:
            self.error(f"expected {what or repr(kind)}, found {tok[1]!r}", tok)
        return tok

    def error(self, msg: str, tok: tuple | None = None) -> NoReturn:
        """Raise ``msg`` at ``tok`` (by default the current token), unless
        the rest of the text holds a bad character: that is raised instead."""
        off = (tok or self.tokens[self.i])[2]
        for m in self.scan:
            if m.lastgroup == "bad":
                msg, off = f"unexpected character {m.group()!r}", m.start()
                break
        raise QasmError(msg, *_position(self.text, off))

    def _int(self, tok: tuple) -> int:
        """The value of an ``int`` token; Python's int() refuses a literal of
        more digits than ``sys.get_int_max_str_digits()``."""
        try:
            return int(tok[1])
        except ValueError:
            self.error(f"integer literal of {len(tok[1])} digits is too long", tok)

    def _comma_list(self, item) -> list:
        items = [item()]
        while self.peek() == ",":
            self.i += 1
            items.append(item())
        return items

    # -- program -------------------------------------------------------------

    def parse_program(self) -> Circuit:
        self._read()
        if self.tokens[0][:2] != ("id", "OPENQASM"):
            self.error("expected 'OPENQASM 2.0;' header")
        self.i += 1
        ver = self.next()
        if ver[1] != "2.0":
            self.error(f"unsupported version header 'OPENQASM {ver[1]}'", ver)
        text, end = self.text, len(self.text)
        skip, call, add = _SKIP_RE.match, _CALL_RE.match, self.instructions.append
        pos = self.expect(";")[2] + 1
        scanned = True  # whether scan stands at pos
        while (start := skip(text, pos).end()) < end:
            m = call(text, start)
            instr = m and self._fast_call(m)
            if instr:
                add(instr)
                pos, scanned = m.end(), False
                continue
            if not scanned:
                self.scan = _TOKEN_RE.finditer(text, start)
            self._read()
            self._parse_statement()
            last = self.tokens[-1]
            pos, scanned = last[2] + len(last[1]), True
        if len(self.instructions) > MAX_EXPANSION_INSTRUCTIONS:
            raise QasmError(f"gate expansion would emit {len(self.instructions)} instructions, "
                            f"more than {MAX_EXPANSION_INSTRUCTIONS}")
        return Circuit(tuple(self.registers), tuple(self.instructions))

    def _fast_call(self, m) -> Instruction | None:
        """The instruction of a ``_CALL_RE`` match, or None unless every
        check that _parse_qop makes on the call passes."""
        name, args, reg1, idx1, reg2, idx2 = m.groups()
        spec = _CALLS.get(name)
        if spec is None or name in self.macros:
            return None
        opcode, n_params, arity = spec
        params = () if args is None else tuple(map(_argument, args.split(",")))
        try:
            first = (reg1, int(idx1))
            qubits = (first,) if reg2 is None else (first, (reg2, int(idx2)))
        except ValueError:  # an index too long for int(), which the grammar names
            return None
        if len(params) != n_params or None in params or len(qubits) != arity:
            return None
        for reg_name, idx in qubits:
            reg = self.reg_map.get(reg_name)
            if reg is None or reg.kind != "q" or idx >= reg.size:
                return None
        if arity == 2 and qubits[0] == qubits[1]:
            return None
        return Instruction(opcode, params, qubits)

    # -- statements ------------------------------------------------------------

    def _parse_statement(self):
        tok = self.tokens[self.i]
        if tok[0] != "id":
            self.error(f"expected statement, found {tok[1]!r}")
        kw = tok[1]
        if kw in ("qreg", "creg"):
            self._parse_reg_decl()
        elif kw == "include":
            self._parse_include()
        elif kw in ("gate", "opaque"):
            self._parse_gate_def()
        elif kw == "if":
            self.i += 1
            self.expect("(")
            creg_tok = self.expect("id", "classical register")
            reg = self.reg_map.get(creg_tok[1])
            if reg is None or reg.kind != "c":
                self.error(f"'{creg_tok[1]}' is not a declared classical register", creg_tok)
            self.expect("==", "'=='")
            val_tok = self.expect("int", "comparison value")
            self.expect(")")
            self._parse_qop((reg.name, self._int(val_tok)))
        else:
            self._parse_qop(None)

    def _parse_reg_decl(self):
        kw = self.next()
        name_tok = self.expect("id", "register name")
        name = name_tok[1]
        self.expect("[")
        size_tok = self.expect("int", "register size")
        self.expect("]")
        self.expect(";")
        size = self._int(size_tok)
        if size < 1:
            self.error(f"register '{name}' must have size >= 1", size_tok)
        if size > MAX_REGISTER_SIZE:
            self.error(f"register '{name}' must have size <= {MAX_REGISTER_SIZE}", size_tok)
        if name in self.reg_map or name in self.macros:
            self.error(f"redefinition of '{name}'", name_tok)
        reg = Register(name, "q" if kw[1] == "qreg" else "c", size)
        self.registers.append(reg)
        self.reg_map[name] = reg

    def _parse_include(self):
        self.i += 1
        path_tok = self.expect("str", "include path")
        self.expect(";")
        path = path_tok[1].strip('"')
        if path != "qelib1.inc":
            self.error(f"include '{path}' is not supported (only the embedded qelib1.inc)",
                       path_tok)
        if not self.included:
            self.included = True
            for macro in _QELIB1_MACROS:
                if macro.name in self.reg_map or macro.name in self.macros:
                    self.error(f"redefinition of '{macro.name}'", path_tok)
                self.macros[macro.name] = macro

    # -- gate definitions -----------------------------------------------------

    def _parse_gate_def(self):
        """``gate`` and ``opaque`` share the header ``name(params) qubits``."""
        opaque = self.next()[1] == "opaque"
        name_tok = self.expect("id", "gate name")
        name = name_tok[1]
        if name in self.reg_map or name in self.macros:
            self.error(f"redefinition of '{name}'", name_tok)
        params: list[str] = []
        if self.peek() == "(":
            self.i += 1
            if self.peek() != ")":
                params = self._comma_list(self._formal)
            self.expect(")")
        qubits = self._comma_list(self._formal)
        if opaque:
            self.expect(";")
            body = None
        else:
            if len(set(params)) != len(params) or len(set(qubits)) != len(qubits):
                self.error(f"duplicate formal argument in gate '{name}'", name_tok)
            self.expect("{")
            body = self._parse_body(name, params, qubits)
        self.macros[name] = _Macro(name, tuple(params), len(qubits), body)

    def _formal(self) -> str:
        return self.expect("id", "identifier")[1]

    def _parse_body(self, gate_name, params, qubits) -> tuple:
        formal_index = {q: i for i, q in enumerate(qubits)}

        def operand() -> int:
            arg = self.expect("id", "formal qubit")
            if arg[1] not in formal_index:
                self.error(f"'{arg[1]}' is not a formal qubit of gate '{gate_name}'", arg)
            return formal_index[arg[1]]

        body = []
        while self.peek() != "}":
            tok = self.expect("id", "gate body statement")
            if tok[1] == "barrier":
                # a barrier only orders operations, so a repeated wire is
                # allowed, as at top level
                args = self._comma_list(operand)
                self.expect(";")
                body.append(("barrier", (), tuple(args)))
            elif tok[1] in ("measure", "reset", "delay", "if"):
                self.error(f"'{tok[1]}' is not allowed inside a gate body", tok)
            else:
                body.append(self._parse_call(tok, params, operand))
        self.i += 1
        return tuple(body)

    # -- quantum operations -----------------------------------------------------

    def _parse_qop(self, condition):
        """One quantum operation at top level, under an ``if`` when
        ``condition`` is set (a barrier is not a qop, so it takes none),
        expanded into the instructions it emits."""
        tok = self.expect("id", "gate name")
        kw = tok[1]
        target, params, clbits = kw, (), ()
        if kw == "measure":
            qubits = (self._parse_argument(),)
            self.expect("->", "'->'")
            clbits = (self._parse_argument("c"),)
            self.expect(";")
            (qreg, qidx), (creg, cidx) = qubits[0], clbits[0]
            if qidx is None or cidx is None:
                qsize = 1 if qidx is not None else self.reg_map[qreg].size
                csize = 1 if cidx is not None else self.reg_map[creg].size
                if qsize != csize:
                    self.error(f"measure broadcast size mismatch: {qreg} has {qsize} "
                               f"wire(s), {creg} has {csize}", tok)
        elif kw == "reset":
            qubits = (self._parse_argument(),)
            self.expect(";")
        elif kw == "delay":
            qubits = (self._parse_argument(),)
            self.expect(",")
            if self.peek() != "int":
                self.error("delay cycle count must be a nonnegative integer")
            count = self.next()
            params = (self._int(count),)
            try:
                float(params[0])  # Circuit.resolve takes a count finite as a double
            except OverflowError:
                self.error(f"delay cycle count of {len(count[1])} digits is out of range", count)
            self.expect(";")
        elif kw == "barrier" and condition is None:
            args = self._comma_list(self._parse_argument)
            self.expect(";")
            # a register-wide barrier orders all of the register's wires at once
            qubits = tuple((reg, j) for reg, idx in args
                           for j in (range(self.reg_map[reg].size) if idx is None else (idx,)))
        else:
            target, params, qubits = self._parse_call(tok, (), self._parse_argument)
            if len({self.reg_map[r].size for r, idx in qubits if idx is None}) > 1:
                self.error("register broadcast requires equal register sizes", tok)
            if any(idx is not None and (r, None) in qubits for r, idx in qubits):
                self.error("duplicate qubit operand", tok)  # the call of wire idx names it twice
        wide = next((r for r, idx in qubits + clbits if idx is None), None)
        calls = 1 if wide is None else self.reg_map[wide].size
        size = calls
        if type(target) is _Macro:
            if target.height > MAX_EXPANSION_DEPTH:
                # name the gate at that depth on the first chain that reaches it
                for depth in range(MAX_EXPANSION_DEPTH, 0, -1):
                    target = next(t for t, _, _ in target.body
                                  if type(t) is _Macro and t.height >= depth)
                self.error(f"gate expansion exceeded depth {MAX_EXPANSION_DEPTH} "
                           f"while inlining '{target.name}'", tok)
            size *= target.size
        if len(self.instructions) + size > MAX_EXPANSION_INSTRUCTIONS:
            self.error(f"gate expansion would emit {len(self.instructions) + size} "
                       f"instructions, more than {MAX_EXPANSION_INSTRUCTIONS}", tok)
        for j in range(calls):
            qs, cs = qubits, clbits
            if wide is not None:  # call j takes wire j of each register-wide operand
                qs, cs = (tuple((r, j if idx is None else idx) for r, idx in ops)
                          for ops in (qubits, clbits))
            if type(target) is _Macro:
                self._expand(target, params, qs, condition, tok)
            else:
                self.instructions.append(Instruction(target, params, qs, cs, condition))

    def _expand(self, macro: _Macro, params: tuple, qubits: tuple, condition, tok: tuple):
        """Append the gates of one call of ``macro``; a barrier is not a
        qop, so no if applies to it."""
        add = self.instructions.append
        try:
            for target, params, qubits in _inline(macro, params, qubits):
                add(Instruction(target, params, qubits, (),
                                None if target == "barrier" else condition))
        except QasmError as exc:
            self.error(exc.message, tok)

    def _parse_call(self, tok, formals, operand) -> tuple:
        """The gate call ``name(params) args;`` after its name token, at top
        level and in gate bodies alike: (library opcode or :class:`_Macro`,
        parameter expressions, operands). With no formals in scope every
        expression folds to a float."""
        name = tok[1]
        if name in self.macros and name not in ("U", "CX"):
            opcode = self.macros[name]
            n_params, arity = len(opcode.params), opcode.arity
        elif name in _CALLS:
            opcode, n_params, arity = _CALLS[name]
        else:
            self.error(f"undeclared gate '{name}'", tok)
        exprs = []
        if self.peek() == "(":
            self.i += 1
            if self.peek() != ")":
                exprs = self._comma_list(lambda: self._parse_sum(formals))
            self.expect(")")
        if len(exprs) != n_params:
            self.error(f"gate '{name}' takes {n_params} parameter(s), got {len(exprs)}", tok)
        args = tuple(self._comma_list(operand))
        self.expect(";")
        if len(args) != arity:
            self.error(f"gate '{name}' acts on {arity} qubit(s), got {len(args)}", tok)
        if len(set(args)) != len(args):
            self.error("duplicate qubit operand", tok)
        return opcode, tuple(exprs), args

    def _parse_argument(self, kind: str = "q") -> tuple:
        tok = self.expect("id", "register reference")
        reg = self.reg_map.get(tok[1])
        if reg is None:
            self.error(f"undeclared register '{tok[1]}'", tok)
        if reg.kind != kind:
            want = "quantum" if kind == "q" else "classical"
            self.error(f"'{tok[1]}' is not a {want} register", tok)
        if self.peek() != "[":
            return (reg.name, None)
        self.i += 1
        idx_tok = self.expect("int", "wire index")
        self.expect("]")
        idx = self._int(idx_tok)
        if idx >= reg.size:
            self.error(f"index {idx} out of range for {tok[1]}[{reg.size}]", idx_tok)
        return (reg.name, idx)

    # -- expressions ------------------------------------------------------------

    def _parse_sum(self, formals):
        node = self._parse_product(formals)
        while self.peek() in ("+", "-"):
            op = self.next()
            node = self._fold(op, node, self._parse_product(formals))
        return node

    def _parse_product(self, formals):
        node = self._parse_unary(formals)
        while self.peek() in ("*", "/"):
            op = self.next()
            node = self._fold(op, node, self._parse_unary(formals))
        return node

    def _parse_unary(self, formals):
        """``-unary`` or ``atom [^ unary]``. Every nested operand passes
        through here; a QasmError ends the parse, so the depth needs no
        unwinding on failure."""
        if self.expr_depth >= MAX_EXPR_DEPTH:
            self.error(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        self.expr_depth += 1
        if self.peek() == "-":
            self.i += 1
            node = _node("neg", (self._parse_unary(formals),))
        else:
            node = self._parse_atom(formals)
            if self.peek() == "^":
                op = self.next()
                node = self._fold(op, node, self._parse_unary(formals))
        self.expr_depth -= 1
        return node

    def _parse_atom(self, formals):
        tok = self.next()
        kind, text = tok[0], tok[1]
        if kind in ("real", "int"):
            value = float(text)
            if not math.isfinite(value):
                self.error(f"number {text} is out of range", tok)
            return value
        if kind == "(":
            node = self._parse_sum(formals)
            self.expect(")")
            return node
        if kind != "id":
            self.error(f"expected expression, found {text!r}", tok)
        if text == "pi":
            return math.pi
        if text in _FUNCS:
            self.expect("(")
            arg = self._parse_sum(formals)
            self.expect(")")
            return self._fold(tok, arg)
        if text not in formals:
            self.error(f"unknown symbol '{text}' in expression", tok)
        return ("arg", formals.index(text))

    def _fold(self, tok: tuple, *args):
        """:func:`_node` of the operator or function ``tok`` over ``args``,
        an evaluation error located at ``tok``."""
        try:
            return _node(tok[1], args)
        except QasmError as exc:
            self.error(exc.message, tok)


def _qelib1_macros(library: bool) -> tuple:
    """The macros of the qelib1 lines of the library gates, or of the other
    gates; each set is parsed on its own, so a body of the other gates calls
    library gates."""
    parser = _Parser("OPENQASM 2.0;\n" + "".join(
        line + "\n" for name, line in QELIB1_DEFS.items() if (name in LIBRARY) == library))
    parser.parse_program()
    return tuple(parser.macros.values())


# the macros that include "qelib1.inc" defines
_QELIB1_MACROS = _qelib1_macros(library=False)


def _template(macro: _Macro) -> tuple:
    """(whether every parameter is a number, the U and CX gates of a call
    of ``macro`` with its own formals, on slots 0, 1, ...)."""
    formals = tuple([("arg", i) for i in range(len(macro.params))])
    body = tuple(_inline(macro, formals, tuple(range(macro.arity))))
    return all(type(e) is not tuple for _, exprs, _ in body for e in exprs), body


# each library gate's qelib1 line, inlined to U ("u3") and CX ("cx"); a
# template whose parameters are all numbers is the one answer for its gate
_TEMPLATES = {macro.name: _template(macro) for macro in _qelib1_macros(library=True)}

# The parameters that euler.reduce_angle reduces before a template reads
# them: those that meet a sum there, where a huge angle would round the
# other operand away, and in which the gate repeats every 2*pi. crx, cry,
# crz and cu3's theta repeat only every 4*pi (crx(a + 2*pi) is crx(a)
# times a Z on the control), so they are left as they are.
_REDUCED = {"cu3": (1, 2), "rxx": (0,)}


def gate_template(opcode: str, params: tuple) -> tuple:
    """Library gate ``opcode`` at ``params`` as the U and CX gates of its
    qelib1 line, equal to it up to global phase: (``"u3"`` or ``"cx"``,
    parameters, operand slots) triples in circuit order, slot 0 the gate's
    first operand. ``params`` is not checked."""
    constant, body = _TEMPLATES[opcode]
    if constant:
        return body
    reduced = _REDUCED.get(opcode)
    if reduced:
        params = tuple([reduce_angle(p) if j in reduced else p for j, p in enumerate(params)])
    return tuple([(op, tuple([e if type(e) is not tuple else params[e[1]] if e[0] == "arg"
                              else _substituted(e, params) for e in exprs]), slots)
                  for op, exprs, slots in body])


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 source text into a flat :class:`Circuit`.

    Raises :class:`~qflow.errors.QasmError` with line and column information
    on syntax errors, undeclared registers, arity mismatches, out-of-range
    indices, non-2.0 version headers and calls that cannot be expanded.
    """
    return _Parser(text).parse_program()
