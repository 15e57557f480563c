"""Every name a qflow module imports is used in that module or exported
through its ``__all__``, every name it defines is exported or used
somewhere in qflow, every name it exports is named by another qflow module
or a benchmark script or is public for a reason given here, every option of
an exported function is passed by another qflow function or a benchmark
script or is settable for a reason given here, only ``circuit.py`` numbers
the wires, only the library, the parser and ``circuit.py`` read a gate's
parameter count, only they and ``metrics.py`` read its arity, only the
parser expands macros, only ``program.py``
sets an attribute of an op, only ``euler.py`` reduces an angle and only
``qelib1.py`` names the text of the include."""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qflow"
BENCH = SRC.parent.parent / "bench"

# exported names that no other qflow module and no benchmark script names,
# each with the reason it is public
PUBLIC_WITHOUT_CALLER = {
    "MAGIC": "the first bytes of an NWQB blob, which a reader of the format checks",
    "FORMAT_VERSION": "the NWQB version a blob's header carries",
    "Resolution": "the type Circuit.resolve returns",
    "sv_statevector": "the documented way to evolve a state vector without sampling",
    "dm_evolve": "the documented way to evolve a density matrix without sampling",
    "depolarizing_kraus": "the Kraus form of the channel qflow.density builds in closed form",
    "thermal_relaxation_kraus": "the Kraus form of the channel qflow.density builds in closed form",
    "DEFAULT_SV_CAP": "the qubit cap sv_run applies unless QFLOW_QUBIT_CAP_SV sets another",
    "DEFAULT_DM_CAP": "the qubit cap dm_run applies unless QFLOW_QUBIT_CAP_DM sets another",
    "DEFAULT_STAB_CAP": "the fixed qubit cap of stab_run",
    "normalize_angle": "the (-pi, pi] convention of every angle the euler helpers return",
    "MAX_EXPANSION_DEPTH": "the macro nesting bound that parse_qasm's error names",
    "MAX_EXPANSION_INSTRUCTIONS": "the output size bound that parse_qasm's error names",
    "GateSpec": "the type of the values of LIBRARY",
    "u3_matrix": "the U3 matrix that every one-qubit gate of LIBRARY equals up to phase",
    "MetricsReport": "the type analyze returns",
    "Schedule": "the type schedule_asap returns",
    "TranspileReport": "the type transpile returns",
    "draw_counts": "the seeded multinomial draw under every backend's counts",
    "StabilizerTableau": "the tableau whose methods the benchmark tracer hooks by name",
    "retarget_1q": "the checked one-qubit retarget; the transpiler calls its unchecked form",
}

# (function, parameter) of the options that no qflow function and no
# benchmark script passes, each with the reason it is settable
OPTION_WITHOUT_CALLER = {
    ("dm_evolve", "device"): "the noise model, which the noise checks dm_evolve exists for set",
    ("depolarizing_kraus", "n_qubits"): "public; the reference the closed form is checked against",
}


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and constants, and the underscore
    methods of its classes (dunders excluded), with their lines."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name.startswith("_"):
                    names[item.name] = item.lineno
    return {name: line for name, line in names.items() if not name.startswith("__")}


@functools.cache
def referenced_in(path: Path) -> frozenset:
    """Every name that a file reads, imports or looks up as an attribute (a
    string that holds a name does not count)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return frozenset(names)


def referenced_in_qflow(*skip: Path) -> set:
    return set().union(*(referenced_in(p) for p in SRC.glob("*.py") if p not in skip))


def dead_names(path: Path) -> list[str]:
    """Names the module defines that no qflow module uses or exports, and
    names it exports that neither another qflow module (the package's
    re-exports aside) nor a benchmark script names, unless public for a
    reason in PUBLIC_WITHOUT_CALLER."""
    tree = ast.parse(path.read_text(), filename=str(path))
    keep = exported(tree) | referenced_in_qflow()
    dead = [f"{name} (line {line})" for name, line in defined_names(tree).items()
            if name not in keep]
    callers = referenced_in_qflow(path, SRC / "__init__.py").union(
        *map(referenced_in, BENCH.glob("*.py")))
    dead += [f"{name} (exported)" for name in exported(tree)
             if name not in callers and name not in PUBLIC_WITHOUT_CALLER]
    return sorted(dead)


def options(path: Path):
    """(function, name a call uses, parameter, position) of each parameter
    with a default of every function, and every method of a class, that the
    module exports; a call names a class's ``__init__`` by the class name.
    The position is that of the argument a call passes, past a method's
    ``self`` or ``cls`` (None if keyword-only)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = exported(tree)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            functions = [(node, node.name, 0)]
        elif isinstance(node, ast.ClassDef) and node.name in names:
            functions = [(fn, node.name if fn.name == "__init__" else fn.name, 1)
                         for fn in node.body if isinstance(fn, ast.FunctionDef)]
        else:
            continue
        for fn, called, bound in functions:
            args = fn.args.posonlyargs + fn.args.args
            for k in range(len(args) - len(fn.args.defaults), len(args)):
                yield fn, called, args[k].arg, k - bound
            for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield fn, called, a.arg, None


@functools.cache
def calls_in(path: Path) -> tuple:
    """(call, first lines of the functions around it) of every call in a file."""
    calls = []

    def visit(node, scope):
        if isinstance(node, ast.Call):
            calls.append((node, scope))
        if isinstance(node, ast.FunctionDef):
            scope = scope | {node.lineno}
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return tuple(calls)


def passes(call: ast.Call, function: str, name: str, position: int | None) -> bool:
    """Whether ``call`` calls ``function`` and passes its parameter ``name``."""
    f = call.func
    if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) != function:
        return False
    return (any(k.arg == name for k in call.keywords)
            or position is not None and len(call.args) > position)


def options_without_caller() -> list[str]:
    """The options that no call in another qflow function or a benchmark
    script passes and OPTION_WITHOUT_CALLER does not name."""
    missing = []
    for path in sorted(SRC.glob("*.py")):
        for fn, called, name, position in options(path):
            if (called, name) in OPTION_WITHOUT_CALLER:
                continue
            if not any(passes(call, called, name, position)
                       and (p != path or fn.lineno not in scope)
                       for p in [*SRC.glob("*.py"), *BENCH.glob("*.py")]
                       for call, scope in calls_in(p)):
                missing.append(f"{path.name}: {called}({name}=...)")
    return missing


def test_every_option_has_a_caller():
    """An option that only a test sets is one more thing to keep working;
    another route gives its effect."""
    assert options_without_caller() == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_names(path):
    assert dead_names(path) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_circuit_numbers_the_wires(path):
    """Every other module reads ``Circuit.resolve`` instead of turning
    register offsets (the table ``Rule.regs``) into wires itself."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and node.attr == "regs")
    assert path.name == "circuit.py" or calls == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_program_sets_what_an_op_holds(path):
    """An op holds what its circuit determines, set where ``Program`` builds
    it; what also depends on a state's wires, such as a kernel, lives in the
    state. No other module assigns to an attribute of an ``op``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    stores = sorted(node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "op")
    assert path.name == "program.py" or stores == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_shape_rule_reads_parameter_counts(path):
    """A flat instruction's shape is checked in ``circuit.py`` alone (the
    parser checks source text, with positions); no other module counts a
    gate's parameters again."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "param_count")
    assert path.name in ("gates.py", "parser.py", "circuit.py") or reads == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_gate_count_rule_reads_arities(path):
    """Gates are counted by arity in ``metrics.gate_counts`` alone, which
    the transpile report and ``analyze`` share; beside it only the library,
    the parser and the shape rule read how many qubits a gate takes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "arity")
    assert path.name in ("gates.py", "parser.py", "circuit.py", "metrics.py") or reads == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_parser_expands_macros(path):
    """``parse_qasm`` expands the include's macros and bounds the expansion;
    every other module reads flat circuits. ``gates.py`` also imports
    ``qelib1``, for the one-line definitions that ``gate_manifest`` lists."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = sorted(node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "qelib1")
    names += sorted({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                    & {"MAX_EXPANSION_DEPTH", "MAX_EXPANSION_INSTRUCTIONS"})
    allowed = {"parser.py": ["qelib1", "MAX_EXPANSION_DEPTH", "MAX_EXPANSION_INSTRUCTIONS"],
               "gates.py": ["qelib1"]}
    assert names == allowed.get(path.name, [])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_euler_reduces_angles(path):
    """An angle is reduced mod 2*pi by one rule, ``euler.reduce_angle``
    (and ``normalize_angle`` on it); no other module takes a remainder or
    an angle from a sine and cosine on its own."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reducers = {"fmod", "atan2", "remainder"}
    uses = sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in reducers
                  and isinstance(node.value, ast.Name) and node.value.id == "math")
    uses += sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "math"
                   and reducers & {alias.name for alias in node.names})
    assert path.name == "euler.py" or uses == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_qelib1_names_the_include_text(path):
    """``qelib1.py`` reads its text once, into the table ``QELIB1_DEFS`` of
    each gate's definition line; the library and the parser read that
    table, so no other module scans the text for its gates again."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "QELIB1_INC")
    uses += sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and "QELIB1_INC" in {alias.name for alias in node.names})
    assert path.name == "qelib1.py" or uses == []
