"""Spans around calls into distspec's layers, recorded from outside.

Every public function in TRACED is replaced, at each module attribute that
holds it, by one wrapper that records a span (function, start, end, parent
span).  Callers look the function up through those attributes, so calls
from other modules, intra-module calls and recursion (``_level``) are all
seen.  Spans are kept in memory in flat arrays and reduced to per-layer
metrics when the workload ends.  A function the program no longer has is
simply not traced and its metrics read 0.

Work done inside pool worker processes is not visible from here: a worker
inherits the wrappers, but its spans stay in its own memory.  That time is
attributed to the sweep span that waits for the pool (verify.self_s).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

# The distspec modules searched for traced attributes; also the layer names.
MODULES = ("enumeration", "graph6", "graphs", "spectral", "transforms", "verify", "jsonio", "cli")

SWEEPS = (
    "sweep_graft",
    "sweep_pendant",
    "sweep_relocation",
    "sweep_perturbation",
    "sweep_monotonicity",
    "sweep_min_cut_vertices",
    "sweep_min_cut_edges",
)

# (defining module, function, layer charged with its self time)
TRACED = (
    ("enumeration", "_level", "enumeration"),
    ("graphs", "key_from_masks", "graphs"),
    ("graphs", "canonical_key", "graphs"),
    ("graphs", "cut_vertices", "graphs"),
    ("graphs", "cut_edges", "graphs"),
    ("graphs", "blocks", "graphs"),
    ("graph6", "decode_graph6", "graph6"),
    ("graph6", "encode_graph6", "graph6"),
    ("spectral", "perron_of", "spectral"),
    ("spectral", "perron", "spectral"),
    ("spectral", "distance_matrix", "spectral"),
    ("transforms", "graft_family", "transforms"),
    ("transforms", "graft", "transforms"),
    ("verify", "report_json", "jsonio"),
    ("cli", "main", "cli"),
) + tuple(("verify", name, "verify") for name in SWEEPS)

CUT_FUNCS = ("cut_vertices", "cut_edges", "blocks")


class Tracer:
    """Records spans for the functions in TRACED until uninstall()."""

    def __init__(self) -> None:
        self.mods = {m: importlib.import_module(f"distspec.{m}") for m in MODULES}
        self.funcs: list[str] = []
        self.layer_of: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.func = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # Sweep-level request and perron result tallies.
        self.requested_width: float | None = None
        self.tightened_calls = 0
        self.power_iterations = 0
        self.kernel_flops = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "perron": (None, self._after_perron),
            "perron_of": (self._before_perron_of(), None),
        }
        for name in SWEEPS:
            hooks[name] = (self._before_sweep, None)
        for defmod, name, layer in TRACED:
            orig = getattr(self.mods[defmod], name, None)
            if orig is None or not callable(orig):
                continue
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(orig, name, layer, before, after)
            for mod in self.mods.values():
                if getattr(mod, name, None) is orig:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, orig))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._undo):
            setattr(mod, name, orig)
        self._undo.clear()

    def _wrap(self, fn, name, layer, before, after):
        fid = len(self.funcs)
        self.funcs.append(name)
        self.layer_of.append(layer)
        start, end, func, parent, stack = self.start, self.end, self.func, self.parent, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(fn, args, kwargs)
            idx = len(start)
            func.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _before_sweep(self, fn, args, kwargs) -> None:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        self.requested_width = bound.arguments.get("width")

    def _before_perron_of(self):
        fn = getattr(self.mods["spectral"], "perron_of", None)
        if fn is None:
            return None
        params = list(inspect.signature(fn).parameters.values())
        default = params[1].default if len(params) > 1 else None
        key = params[1].name if len(params) > 1 else None

        def before(fn, args, kwargs):
            width = args[1] if len(args) > 1 else kwargs.get(key, default)
            req = self.requested_width
            if req is not None and width is not None and width < req:
                self.tightened_calls += 1

        return before

    def _after_perron(self, args, result) -> None:
        iters = int(getattr(result, "iterations", 0))
        n = int(getattr(args[0], "n", 0)) if args else 0
        self.power_iterations += iters
        self.kernel_flops += 2 * n * n * iters

    # -- reduction ----------------------------------------------------------

    def spans(self):
        """Duration and self time (duration minus direct children) per span."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        self_t = list(dur)
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                self_t[p] -= dur[i]
        return dur, self_t

    def metrics(self, kept_graphs: int, perron_hits: int, perron_misses: int) -> dict:
        """Per-layer metrics, keyed '<module>.<name>'."""
        dur, self_t = self.spans()
        funcs, func, parent = self.funcs, self.func, self.parent
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        layer_self = dict.fromkeys(MODULES, 0.0)
        level_s = 0.0
        level_keys = 0
        cut_calls = 0
        cut_s = 0.0
        for i in range(len(dur)):
            name = funcs[func[i]]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur[i]
            layer_self[self.layer_of[func[i]]] += self_t[i]
            p = parent[i]
            pname = funcs[func[p]] if p >= 0 else None
            if name == "_level" and pname != "_level":
                level_s += dur[i]
            elif name == "key_from_masks" and pname == "_level":
                level_keys += 1
            elif name in CUT_FUNCS and pname not in CUT_FUNCS:
                cut_calls += 1
                cut_s += dur[i]

        def per_call_us(name):
            n = calls.get(name, 0)
            return 1e6 * incl[name] / n if n else 0.0

        lookups = perron_hits + perron_misses
        m = {
            "enumeration.level_s": level_s,
            "enumeration.key_calls": level_keys,
            "enumeration.accept_ratio": kept_graphs / level_keys if level_keys else 0.0,
            "graph6.decode_calls": calls.get("decode_graph6", 0),
            "graph6.decode_us": per_call_us("decode_graph6"),
            "graph6.encode_calls": calls.get("encode_graph6", 0),
            "graph6.encode_us": per_call_us("encode_graph6"),
            "graphs.cut_calls": cut_calls,
            "graphs.cut_us": 1e6 * cut_s / cut_calls if cut_calls else 0.0,
            "graphs.canonical_key_calls": calls.get("canonical_key", 0),
            "graphs.key_us": per_call_us("key_from_masks"),
            "spectral.perron_calls": calls.get("perron_of", 0),
            "spectral.perron_hit_ratio": perron_hits / lookups if lookups else 0.0,
            "spectral.brackets": calls.get("perron", 0),
            "spectral.bracket_us": per_call_us("perron"),
            "spectral.distance_matrix_us": per_call_us("distance_matrix"),
            "spectral.power_iterations": self.power_iterations,
            "spectral.kernel_flops": self.kernel_flops,
            "spectral.tightened_calls": self.tightened_calls,
            "transforms.graft_us": per_call_us("graft"),
            "jsonio.report_us": per_call_us("report_json"),
        }
        for layer, s in layer_self.items():
            m[f"{layer}.self_s"] = s
        return m
