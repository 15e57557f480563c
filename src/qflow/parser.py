"""OpenQASM 2.0 parser with the timing extension.

Produces a :class:`~qflow.circuit.Circuit`. Beyond standard QASM2 this
accepts ``delay q[i], cycles;`` statements. Parameter expressions made of
literals and ``pi`` are folded to doubles at parse time; only gate macro
bodies keep symbolic expressions over their formal parameters.

``include "qelib1.inc";`` resolves against the embedded copy; any other
include path is rejected. Library gates (everything in
:data:`qflow.gates.LIBRARY`) are callable whether or not the include is
present. Three-or-more-qubit qelib1 gates (``ccx``, ``cswap``) are attached
to the circuit as macro definitions when used.
"""

from __future__ import annotations

import math
import re

from .circuit import (
    BinOp,
    BodyInstruction,
    Circuit,
    Const,
    FormalRef,
    FuncCall,
    GateDef,
    Instruction,
    Neg,
    ParamExpr,
    Register,
    eval_expr,
)
from .errors import QasmError
from .gates import LIBRARY
from .qelib1 import QELIB1_INC

__all__ = ["parse_qasm"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<real>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<eq>==)
  | (?P<sym>[()\[\]{};,+\-*/^])
    """,
    re.VERBOSE,
)

_FUNC_NAMES = frozenset({"sin", "cos", "tan", "exp", "ln", "sqrt"})

# Nesting bound for parameter expressions. Each level is a few Python
# frames of recursive descent, so this keeps deep input a QasmError well
# before the interpreter's recursion limit.
MAX_EXPR_DEPTH = 100


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind},{self.text!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QasmError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind in ("ws", "comment"):
            nl = value.count("\n")
            if nl:
                line += nl
                line_start = pos + value.rindex("\n") + 1
        else:
            col = pos - line_start + 1
            if kind == "sym":
                kind = value
            tokens.append(_Token(kind, value, line, col))
        pos = m.end()
    tokens.append(_Token("eof", "", line, n - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], source_name: str | None):
        self.tokens = tokens
        self.i = 0
        self.source_name = source_name
        self.registers: list[Register] = []
        self.reg_map: dict[str, Register] = {}
        self.defs: dict[str, GateDef] = {}          # user + loaded include macros
        self.user_def_order: list[str] = []
        self.include_def_names: list[str] = []       # qelib1 macros, file order
        self.includes: list[str] = []
        self.instructions: list[Instruction] = []
        self.expr_depth = 0

    # -- token helpers -------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            want = what or f"'{kind}'"
            raise QasmError(f"expected {want}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def error(self, msg: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise QasmError(msg, tok.line, tok.col)

    # -- program -------------------------------------------------------------

    def parse_program(self) -> Circuit:
        self._parse_version()
        while self.peek().kind != "eof":
            self._parse_statement()
        return Circuit(
            registers=tuple(self.registers),
            instructions=tuple(self.instructions),
            gate_defs=self._collect_gate_defs(),
            includes=tuple(self.includes),
            source_name=self.source_name,
        )

    def _parse_version(self):
        tok = self.peek()
        if tok.kind != "id" or tok.text != "OPENQASM":
            self.error("expected 'OPENQASM 2.0;' header")
        self.next()
        ver = self.next()
        if ver.text != "2.0":
            raise QasmError(f"unsupported version header 'OPENQASM {ver.text}'", ver.line, ver.col)
        self.expect(";")

    def _collect_gate_defs(self) -> tuple:
        """User definitions in declaration order, then the include macros the
        circuit actually needs (transitively), in qelib1 file order."""
        needed: set[str] = set()

        def visit(opcode: str):
            if opcode in needed or opcode not in self.defs:
                return
            if opcode in self.user_def_order:
                return  # user defs are always kept; bodies scanned below
            needed.add(opcode)
            for binstr in self.defs[opcode].body:
                visit(binstr.opcode)

        for instr in self.instructions:
            visit(instr.opcode)
        for name in self.user_def_order:
            for binstr in self.defs[name].body:
                visit(binstr.opcode)

        out = [self.defs[name] for name in self.user_def_order]
        out.extend(self.defs[name] for name in self.include_def_names if name in needed)
        return tuple(out)

    # -- statements ------------------------------------------------------------

    def _parse_statement(self):
        tok = self.peek()
        if tok.kind != "id":
            self.error(f"expected statement, found {tok.text!r}")
        kw = tok.text
        if kw in ("qreg", "creg"):
            self._parse_reg_decl()
        elif kw == "include":
            self._parse_include()
        elif kw == "gate":
            self._parse_gate_def()
        elif kw == "opaque":
            self._parse_opaque()
        elif kw == "if":
            self._parse_if()
        elif kw == "barrier":
            self.next()
            args = [self._parse_argument("q")]
            while self.peek().kind == ",":
                self.next()
                args.append(self._parse_argument("q"))
            self.expect(";")
            self.instructions.append(Instruction("barrier", (), tuple(args)))
        else:
            self.instructions.append(self._parse_qop())

    def _parse_reg_decl(self):
        kw = self.next()
        name_tok = self.expect("id", "register name")
        name = name_tok.text
        self.expect("[")
        size_tok = self.expect("int", "register size")
        self.expect("]")
        self.expect(";")
        size = int(size_tok.text)
        if size < 1:
            raise QasmError(f"register '{name}' must have size >= 1", size_tok.line, size_tok.col)
        if name in self.reg_map or name in self.defs:
            raise QasmError(f"redefinition of '{name}'", name_tok.line, name_tok.col)
        reg = Register(name, "q" if kw.text == "qreg" else "c", size)
        self.registers.append(reg)
        self.reg_map[name] = reg

    def _parse_include(self):
        self.next()
        path_tok = self.expect("str", "include path")
        self.expect(";")
        path = path_tok.text.strip('"')
        if path != "qelib1.inc":
            raise QasmError(
                f"include '{path}' is not supported (only the embedded qelib1.inc)",
                path_tok.line,
                path_tok.col,
            )
        if path not in self.includes:
            self.includes.append(path)
            for gd in _qelib1_macros():
                if gd.name not in self.defs:
                    self.defs[gd.name] = gd
                    self.include_def_names.append(gd.name)

    # -- gate definitions -----------------------------------------------------

    def _parse_formal_list(self) -> list[str]:
        names = [self.expect("id", "identifier").text]
        while self.peek().kind == ",":
            self.next()
            names.append(self.expect("id", "identifier").text)
        return names

    def _parse_gate_def(self):
        self.next()
        name_tok = self.expect("id", "gate name")
        name = name_tok.text
        if name in self.reg_map or name in self.defs:
            raise QasmError(f"redefinition of '{name}'", name_tok.line, name_tok.col)
        params: list[str] = []
        if self.peek().kind == "(":
            self.next()
            if self.peek().kind != ")":
                params = self._parse_formal_list()
            self.expect(")")
        qubits = self._parse_formal_list()
        if len(set(params)) != len(params) or len(set(qubits)) != len(qubits):
            self.error(f"duplicate formal argument in gate '{name}'", name_tok)
        self.expect("{")
        body = []
        while self.peek().kind != "}":
            body.append(self._parse_body_statement(name, params, qubits))
        self.next()
        gd = GateDef(name, tuple(params), tuple(qubits), tuple(body))
        self.defs[name] = gd
        self.user_def_order.append(name)

    def _parse_opaque(self):
        self.next()
        name_tok = self.expect("id", "gate name")
        name = name_tok.text
        if name in self.reg_map or name in self.defs:
            raise QasmError(f"redefinition of '{name}'", name_tok.line, name_tok.col)
        params: list[str] = []
        if self.peek().kind == "(":
            self.next()
            if self.peek().kind != ")":
                params = self._parse_formal_list()
            self.expect(")")
        qubits = self._parse_formal_list()
        self.expect(";")
        gd = GateDef(name, tuple(params), tuple(qubits), (), opaque=True)
        self.defs[name] = gd
        self.user_def_order.append(name)

    def _parse_body_statement(self, gate_name, formal_params, formal_qubits) -> BodyInstruction:
        tok = self.expect("id", "gate body statement")
        formal_index = {q: i for i, q in enumerate(formal_qubits)}

        def formal_args() -> tuple:
            args = []
            while True:
                arg = self.expect("id", "formal qubit")
                if arg.text not in formal_index:
                    raise QasmError(
                        f"'{arg.text}' is not a formal qubit of gate '{gate_name}'",
                        arg.line,
                        arg.col,
                    )
                args.append(formal_index[arg.text])
                if self.peek().kind != ",":
                    break
                self.next()
            if len(set(args)) != len(args):
                raise QasmError("duplicate qubit operand", tok.line, tok.col)
            return tuple(args)

        if tok.text == "barrier":
            args = formal_args()
            self.expect(";")
            return BodyInstruction("barrier", (), args)
        if tok.text in ("measure", "reset", "delay", "if"):
            raise QasmError(
                f"'{tok.text}' is not allowed inside a gate body", tok.line, tok.col
            )

        opcode, n_params, arity = self._resolve_gate(tok)
        params: tuple = ()
        if self.peek().kind == "(":
            self.next()
            exprs = []
            if self.peek().kind != ")":
                exprs.append(self._parse_expr(formal_params))
                while self.peek().kind == ",":
                    self.next()
                    exprs.append(self._parse_expr(formal_params))
            self.expect(")")
            params = tuple(exprs)
        if len(params) != n_params:
            raise QasmError(
                f"gate '{tok.text}' takes {n_params} parameter(s), got {len(params)}",
                tok.line,
                tok.col,
            )
        args = formal_args()
        if len(args) != arity:
            raise QasmError(
                f"gate '{tok.text}' acts on {arity} qubit(s), got {len(args)}",
                tok.line,
                tok.col,
            )
        self.expect(";")
        return BodyInstruction(opcode, params, args)

    def _resolve_gate(self, tok: _Token) -> tuple[str, int, int]:
        """Map a gate-call token to (opcode, n_params, arity)."""
        name = tok.text
        if name == "U":
            return "u3", 3, 1
        if name == "CX":
            return "cx", 0, 2
        gd = self.defs.get(name)
        if gd is not None:
            return name, len(gd.params), len(gd.qubits)
        spec = LIBRARY.get(name)
        if spec is not None:
            return name, spec.param_count, spec.arity
        raise QasmError(f"undeclared gate '{name}'", tok.line, tok.col)

    # -- quantum operations -----------------------------------------------------

    def _parse_if(self):
        self.next()
        self.expect("(")
        creg_tok = self.expect("id", "classical register")
        reg = self.reg_map.get(creg_tok.text)
        if reg is None or reg.kind != "c":
            raise QasmError(
                f"'{creg_tok.text}' is not a declared classical register",
                creg_tok.line,
                creg_tok.col,
            )
        self.expect("eq", "'=='")
        val_tok = self.expect("int", "comparison value")
        self.expect(")")
        instr = self._parse_qop()
        self.instructions.append(
            Instruction(instr.opcode, instr.params, instr.qubits, instr.clbits,
                        condition=(reg.name, int(val_tok.text)))
        )

    def _parse_qop(self) -> Instruction:
        tok = self.peek()
        if tok.text == "measure":
            return self._parse_measure()
        if tok.text == "reset":
            self.next()
            arg = self._parse_argument("q")
            self.expect(";")
            return Instruction("reset", (), (arg,))
        if tok.text == "delay":
            return self._parse_delay()
        return self._parse_gate_call()

    def _parse_measure(self) -> Instruction:
        kw = self.next()
        qarg = self._parse_argument("q")
        self.expect("arrow", "'->'")
        carg = self._parse_argument("c")
        self.expect(";")
        if qarg[1] is None or carg[1] is None:
            qsize = 1 if qarg[1] is not None else self.reg_map[qarg[0]].size
            csize = 1 if carg[1] is not None else self.reg_map[carg[0]].size
            if qsize != csize:
                raise QasmError(
                    f"measure broadcast size mismatch: {qarg[0]} has {qsize} wire(s), "
                    f"{carg[0]} has {csize}",
                    kw.line,
                    kw.col,
                )
        return Instruction("measure", (), (qarg,), (carg,))

    def _parse_delay(self) -> Instruction:
        self.next()
        arg = self._parse_argument("q")
        self.expect(",")
        cyc_tok = self.peek()
        if cyc_tok.kind != "int":
            raise QasmError(
                "delay cycle count must be a nonnegative integer",
                cyc_tok.line,
                cyc_tok.col,
            )
        self.next()
        self.expect(";")
        return Instruction("delay", (int(cyc_tok.text),), (arg,))

    def _parse_gate_call(self) -> Instruction:
        tok = self.expect("id", "gate name")
        opcode, n_params, arity = self._resolve_gate(tok)
        params: tuple = ()
        if self.peek().kind == "(":
            self.next()
            exprs = []
            if self.peek().kind != ")":
                exprs.append(self._parse_expr(()))
                while self.peek().kind == ",":
                    self.next()
                    exprs.append(self._parse_expr(()))
            self.expect(")")
            folded = []
            for e in exprs:
                if not isinstance(e, Const):
                    self.error("parameter expression does not fold to a constant", tok)
                folded.append(e.value)
            params = tuple(folded)
        if len(params) != n_params:
            raise QasmError(
                f"gate '{tok.text}' takes {n_params} parameter(s), got {len(params)}",
                tok.line,
                tok.col,
            )
        args = [self._parse_argument("q")]
        while self.peek().kind == ",":
            self.next()
            args.append(self._parse_argument("q"))
        self.expect(";")
        if len(args) != arity:
            raise QasmError(
                f"gate '{tok.text}' acts on {arity} qubit(s), got {len(args)}",
                tok.line,
                tok.col,
            )
        if len(set(args)) != len(args):
            raise QasmError("duplicate qubit operand", tok.line, tok.col)
        sizes = {self.reg_map[r].size for r, idx in args if idx is None}
        if len(sizes) > 1:
            raise QasmError(
                "register broadcast requires equal register sizes", tok.line, tok.col
            )
        return Instruction(opcode, params, tuple(args))

    def _parse_argument(self, kind: str) -> tuple:
        tok = self.expect("id", "register reference")
        reg = self.reg_map.get(tok.text)
        if reg is None:
            raise QasmError(f"undeclared register '{tok.text}'", tok.line, tok.col)
        want = "quantum" if kind == "q" else "classical"
        if reg.kind != kind:
            raise QasmError(f"'{tok.text}' is not a {want} register", tok.line, tok.col)
        if self.peek().kind == "[":
            self.next()
            idx_tok = self.expect("int", "wire index")
            self.expect("]")
            idx = int(idx_tok.text)
            if idx >= reg.size:
                raise QasmError(
                    f"index {idx} out of range for {tok.text}[{reg.size}]",
                    idx_tok.line,
                    idx_tok.col,
                )
            return (reg.name, idx)
        return (reg.name, None)

    # -- expressions ------------------------------------------------------------

    def _parse_expr(self, formals) -> ParamExpr:
        return self._parse_additive(formals)

    def _parse_additive(self, formals) -> ParamExpr:
        node = self._parse_mult(formals)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = _fold(BinOp(op, node, self._parse_mult(formals)))
        return node

    def _parse_mult(self, formals) -> ParamExpr:
        node = self._parse_unary(formals)
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            node = _fold(BinOp(op, node, self._parse_unary(formals)), self.peek())
        return node

    def _parse_unary(self, formals) -> ParamExpr:
        # every nested operand passes through here; a QasmError ends the parse,
        # so the depth needs no unwinding on failure
        if self.expr_depth >= MAX_EXPR_DEPTH:
            self.error(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        self.expr_depth += 1
        if self.peek().kind == "-":
            self.next()
            node = _fold(Neg(self._parse_unary(formals)))
        else:
            node = self._parse_power(formals)
        self.expr_depth -= 1
        return node

    def _parse_power(self, formals) -> ParamExpr:
        node = self._parse_atom(formals)
        if self.peek().kind == "^":
            self.next()
            node = _fold(BinOp("^", node, self._parse_unary(formals)))
        return node

    def _parse_atom(self, formals) -> ParamExpr:
        tok = self.next()
        if tok.kind in ("real", "int"):
            value = float(tok.text)
            if not math.isfinite(value):
                raise QasmError(f"number {tok.text} is out of range", tok.line, tok.col)
            return Const(value)
        if tok.kind == "(":
            node = self._parse_expr(formals)
            self.expect(")")
            return node
        if tok.kind == "id":
            if tok.text == "pi":
                return Const(math.pi)
            if tok.text in _FUNC_NAMES:
                self.expect("(")
                arg = self._parse_expr(formals)
                self.expect(")")
                return _fold(FuncCall(tok.text, arg), tok)
            if tok.text in formals:
                return FormalRef(tok.text)
            raise QasmError(f"unknown symbol '{tok.text}' in expression", tok.line, tok.col)
        raise QasmError(f"expected expression, found {tok.text!r}", tok.line, tok.col)


def _fold(expr: ParamExpr, tok: _Token | None = None) -> ParamExpr:
    """Collapse constant subtrees; leave formal references symbolic."""
    if isinstance(expr, Neg) and isinstance(expr.operand, Const):
        return Const(-expr.operand.value)
    if (isinstance(expr, BinOp) and isinstance(expr.left, Const) and isinstance(expr.right, Const)
            or isinstance(expr, FuncCall) and isinstance(expr.arg, Const)):
        line, col = (tok.line, tok.col) if tok else (None, None)
        return Const(eval_expr(expr, {}, line, col))
    return expr


_QELIB1_CACHE: list[GateDef] | None = None


def _qelib1_macros() -> list[GateDef]:
    """Gate definitions from the embedded qelib1.inc that are not library
    builtins (the multi-qubit macros), parsed once."""
    global _QELIB1_CACHE
    if _QELIB1_CACHE is None:
        tokens = _tokenize("OPENQASM 2.0;\n" + QELIB1_INC)
        parser = _Parser(tokens, "qelib1.inc")
        parser._parse_version()
        while parser.peek().kind != "eof":
            if parser.peek().text != "gate":
                parser.error("qelib1.inc may only contain gate definitions")
            parser._parse_gate_def()
        _QELIB1_CACHE = [
            GateDef(gd.name, gd.params, gd.qubits, gd.body, gd.opaque, from_include=True)
            for name, gd in parser.defs.items()
            if name not in LIBRARY
        ]
    return _QELIB1_CACHE


def parse_qasm(text: str, source_name: str | None = None) -> Circuit:
    """Parse OpenQASM 2.0 source text into a :class:`Circuit`.

    Raises :class:`~qflow.errors.QasmError` with line and column information
    on syntax errors, undeclared registers, arity mismatches, out-of-range
    indices, and non-2.0 version headers.
    """
    return _Parser(_tokenize(text), source_name).parse_program()
