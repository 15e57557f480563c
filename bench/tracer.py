"""Per-layer timing by wrapping qflow's public functions from outside.

Each hook names a function by its defining module; the wrapper replaces
every binding of that function object in every loaded ``qflow`` module
(for example ``qflow.transpile.route`` and the package's ``qflow.route``),
so calls are timed where they are looked up. Class hooks replace the
method on the class. A hook whose target no longer exists marks its layer
absent instead of failing.

Spans nest by caller. A layer's inclusive time counts only its outermost
span; its self time is each span's duration minus its direct children.
Hot hooks (kernels, tableau methods) only feed counters; the others are
also kept as span records and written out at the end.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("parser", "flatten", "decompose", "layout", "routing", "transpile", "peephole",
          "schedule", "metrics", "printer", "binio", "statevector", "density", "noise",
          "stabilizer", "results", "device")
COUNTERS = {  # name -> unit, per traced job
    "parser.stmts": "stmts/job", "binio.bytes": "B/job", "routing.swaps": "swaps/job",
    "routing.errors": "errors/job", "statevector.kernel_calls": "calls/job",
    "statevector.kernel_ms": "ms/job", "statevector.trajectory_shots": "shots/job",
    "density.kernel_calls": "calls/job", "density.kernel_ms": "ms/job",
    "density.fidelity_ms": "ms/job", "stabilizer.apply_calls": "calls/job",
    "stabilizer.measure_calls": "calls/job", "stabilizer.measure_ms": "ms/job",
    "stabilizer.copies": "calls/job",
}
MAX_SPANS = 200_000


@dataclass(frozen=True)
class Hook:
    module: str
    name: str                 # "func" or "Class.method"
    layer: str                # "*" means the consuming module's name
    calls: str | None = None  # counter fed with the call count, default <layer>.calls
    ms: str | None = None     # extra counter fed with the inclusive time
    record: bool = True
    per_binding: dict = field(default_factory=dict)  # consumer -> extra ms counter


def _stmts(tracer, args, kwargs, result):
    text = args[0] if args else kwargs.get("text", "")
    tracer.counts["parser.stmts"] += text.count(";")


def _swaps(tracer, args, kwargs, result):
    tracer.counts["routing.swaps"] += sum(1 for i in result[0].instructions
                                          if i.opcode == "swap")


def _bytes(tracer, args, kwargs, result):
    tracer.counts["binio.bytes"] += len(result)


def _shots(tracer, args, kwargs, result):
    if result.amplitudes is None:
        tracer.counts["statevector.trajectory_shots"] += result.shots


HOOKS = (
    Hook("qflow.parser", "parse_qasm", "parser"),
    Hook("qflow.flatten", "flatten", "flatten"),
    Hook("qflow.decompose", "decompose_to_u_cx", "decompose", record=False),
    Hook("qflow.decompose", "retarget_1q", "decompose", record=False),
    Hook("qflow.decompose", "retarget_2q", "decompose"),
    Hook("qflow.layout", "initial_mapping", "layout"),
    Hook("qflow.routing", "route", "routing"),
    Hook("qflow.transpile", "transpile", "transpile"),
    Hook("qflow.transpile", "peephole_1q", "peephole"),
    Hook("qflow.schedule", "schedule_asap", "schedule"),
    Hook("qflow.metrics", "circuit_depth", "metrics"),
    Hook("qflow.printer", "print_qasm", "printer"),
    Hook("qflow.binio", "encode_binary", "binio"),
    Hook("qflow.binio", "decode_binary", "binio"),
    Hook("qflow.statevector", "sv_run", "statevector"),
    Hook("qflow.statevector", "sv_statevector", "statevector",
         per_binding={"density": "density.fidelity_ms"}),
    Hook("qflow.statevector", "apply_gate", "*", calls="{}.kernel_calls",
         ms="{}.kernel_ms", record=False),
    Hook("qflow.density", "dm_run", "density"),
    Hook("qflow.density", "dm_evolve", "density"),
    Hook("qflow.density", "fidelity", "density", ms="density.fidelity_ms"),
    Hook("qflow.noise", "depolarizing_kraus", "noise", record=False),
    Hook("qflow.noise", "thermal_relaxation_kraus", "noise", record=False),
    Hook("qflow.noise", "readout_matrix", "noise", record=False),
    Hook("qflow.results", "sample_counts", "results"),
    Hook("qflow.stabilizer", "stab_run", "stabilizer"),
    Hook("qflow.stabilizer", "StabilizerTableau.apply", "stabilizer",
         calls="stabilizer.apply_calls", record=False),
    Hook("qflow.stabilizer", "StabilizerTableau.measure", "stabilizer",
         calls="stabilizer.measure_calls", ms="stabilizer.measure_ms", record=False),
    Hook("qflow.stabilizer", "StabilizerTableau.copy", "stabilizer",
         calls="stabilizer.copies", record=False),
    Hook("qflow.device", "load_bundled_device", "device"),
    Hook("qflow.device", "DeviceConfig.topology", "device"),
)
ON_RESULT = {"parse_qasm": _stmts, "route": _swaps, "encode_binary": _bytes, "sv_run": _shots}


class Tracer:
    def __init__(self):
        self.ns = defaultdict(int)       # "<layer>.ms" / "<layer>.self_ms" / extra ms, in ns
        self.counts = defaultdict(int)   # calls and other counters
        self.spans: list[tuple] = []     # (job, layer, function, parent, start_ns, dur_ns)
        self.dropped = 0
        self.job = -1
        self._stack: list[list] = []     # [layer, child_ns, span index]
        self._depth = defaultdict(int)
        self._installed: list[tuple] = []
        self.absent: set[str] = set()
        self.bindings = self._resolve()

    def _resolve(self) -> list[tuple]:
        """(owner object, attribute, original, label, hook, consumer) for
        every binding of every hooked function."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "qflow" or name.startswith("qflow.")}
        found = []
        present = set()
        for hook in HOOKS:
            try:
                owner = importlib.import_module(hook.module)
            except ImportError:
                continue
            if "." in hook.name:
                cls_name, meth = hook.name.split(".")
                cls = getattr(owner, cls_name, None)
                orig = getattr(cls, meth, None) if cls is not None else None
                if orig is not None:
                    found.append((cls, meth, orig, hook.layer, hook, hook.module.split(".")[-1]))
                    present.add(hook.layer)
                continue
            orig = getattr(owner, hook.name, None)
            if orig is None:
                continue
            for mod_name, mod in mods.items():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        consumer = mod_name.split(".")[-1]
                        label = consumer if hook.layer == "*" else hook.layer
                        found.append((mod, attr, orig, label, hook, consumer))
                        present.add(label)
        self.absent = set(LAYERS) - present
        return found

    def install(self):
        for owner, attr, orig, label, hook, consumer in self.bindings:
            setattr(owner, attr, self._wrap(orig, label, hook, consumer))
            self._installed.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def _wrap(self, fn, layer: str, hook: Hook, consumer: str):
        calls_key = (hook.calls or f"{layer}.calls").format(layer)
        ms_keys = [k.format(layer) for k in (hook.ms, hook.per_binding.get(consumer)) if k]
        on_result = ON_RESULT.get(hook.name)
        fn_name = hook.name
        stack, depth, ns, counts, spans = self._stack, self._depth, self.ns, self.counts, self.spans
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [layer, 0, -1]
            if hook.record:
                if len(spans) < MAX_SPANS:
                    frame[2] = len(spans)
                    spans.append(None)
                else:
                    self.dropped += 1
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            depth[layer] += 1
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if layer == "routing" and type(exc).__name__ == "RoutingError":
                    counts["routing.errors"] += 1
                raise
            finally:
                dt = now() - t0
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][1] += dt
                if depth[layer] == 0:
                    ns[f"{layer}.ms"] += dt
                ns[f"{layer}.self_ms"] += dt - frame[1]
                for k in ms_keys:
                    ns[k] += dt
                counts[calls_key] += 1
                if frame[2] >= 0:
                    spans[frame[2]] = (self.job, layer, fn_name, parent, t0, dt)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def per_job(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Every layer metric and counter as (value per traced job, unit)."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.ms"] = (self.ns[f"{layer}.ms"] / 1e6 / jobs, "ms/job")
            out[f"{layer}.self_ms"] = (self.ns[f"{layer}.self_ms"] / 1e6 / jobs, "ms/job")
            out[f"{layer}.calls"] = (self.counts[f"{layer}.calls"] / jobs, "calls/job")
        for key, unit in COUNTERS.items():
            value = self.ns[key] / 1e6 if key.endswith("_ms") else self.counts[key]
            out[key] = (value / jobs, unit)
        return out

    def dump(self) -> dict:
        return {"absent_layers": sorted(self.absent), "dropped_spans": self.dropped,
                "span_fields": ["job", "layer", "function", "parent", "start_ns", "dur_ns"],
                "spans": [s for s in self.spans if s is not None]}
