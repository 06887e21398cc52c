"""Span tracing at dynell's module boundaries, installed from outside.

The tracer replaces, in every dynell module namespace and on the classes,
the functions each layer exports (or that the next layer calls) with
wrappers that record one span per call: name, start, end and the index of
the enclosing span.  Spans live in flat arrays in memory and are written out
once, after the pass.  Nothing in the package is edited.

A layer's self time is the time its spans cover minus the time their child
spans cover, so the self times of all layers plus the benchmark's own root
span partition the traced pass exactly.

The tracer reaches three private names: ``rmatrix._r_dyn`` (called by the
checks), ``rmatrix._r_array`` (R assembly, whose lru_cache misses count the
assemblies) and ``checks._REGISTRY`` (one runner per check name).  A
target that no longer exists raises TracerError, which fails the traced
run: a layer metric must not read 0 because a name moved.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = ("bench", "special", "rmatrix", "shiftcalc", "checks", "cli")

# (layer, module, class or None, attribute names)
TARGETS = (
    ("special", "dynell.special", None,
     ("theta", "rho_norm", "unitarity_scalar", "qpochhammer")),
    ("rmatrix", "dynell.rmatrix", None,
     ("build_r", "build_r_twisted", "gauge_g", "twist_of_r", "upsilon",
      "upsilon_ratio", "ups_ratio", "cross_gauge", "trace_weight",
      "trace_weight_direct", "gamma_twist", "mu_scalar", "dyn_w",
      "_r_dyn", "_r_array")),
    ("rmatrix", "dynell.rmatrix", "RPoint", ("validate",)),
    ("shiftcalc", "dynell.shiftcalc", None,
     ("weight_shift_matrix", "promote_shifted_scalar", "zero_weight_check",
      "skew_mul", "shift_scalar")),
    ("shiftcalc", "dynell.shiftcalc", "DynMatrix",
     ("from_entries", "diagonal", "identity", "constant", "__matmul__",
      "__add__", "__sub__", "scale", "transpose_leg", "swap_legs",
      "shift_col", "shift_row", "partial_trace", "conj_by_shift", "embed",
      "inv", "at", "coeffs_at")),
    ("checks", "dynell.checks", None,
     ("run_suite", "summarize", "suite_passes", "resolve_check_names")),
    ("cli", "dynell.cli", None, ("main",)),
)

# shiftcalc spans that evaluate closures; every other shiftcalc span builds
EVAL_NAMES = frozenset(
    {"shiftcalc.DynMatrix.at", "shiftcalc.DynMatrix.coeffs_at", "shiftcalc.zero_weight_check"}
)
# argument tuples are recorded for these, to measure reuse
KEYED_LAYERS = frozenset({"special"})
KEYED_NAMES = frozenset({"rmatrix.dyn_w"})

CHECK_FAMILIES = (
    "aequalsn", "cor22chain", "crossing", "crossunit", "dybe", "lemmap1",
    "magic", "nforms", "nscalar", "shiftcalc", "theta", "traceint", "unitarity",
)

PER_LAYER_UNITS = {
    "special.calls": "count",
    "special.self_s": "s",
    "special.distinct_ratio": "ratio",
    "special.rho_norm_ms.p50": "ms",
    "rmatrix.r_assemblies": "count",
    "rmatrix.self_s": "s",
    "rmatrix.dyn_w.calls": "count",
    "rmatrix.dyn_w.distinct_ratio": "ratio",
    "shiftcalc.ops": "count",
    "shiftcalc.build_s": "s",
    "shiftcalc.evals": "count",
    "shiftcalc.eval_self_s": "s",
    **{f"checks.{f}.s": "s" for f in CHECK_FAMILIES},
    **{f"checks.{f}.skipped": "count" for f in CHECK_FAMILIES},
    "cli.render_s": "s",
}


class TracerError(RuntimeError):
    """A tracing target is missing from the package."""


def _require(owner, attr: str, where: str):
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        raise TracerError(f"tracing target {where}.{attr} not found")
    return value


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise TracerError(f"tracing target module {name} not found") from exc


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.keys: dict[str, set] = {}

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return self._ids[name]

    def wrap(self, fn, name: str, layer: str):
        nid = self._intern(name, layer)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        keys = None
        if layer in KEYED_LAYERS or name in KEYED_NAMES:
            keys = self.keys.setdefault(layer if layer in KEYED_LAYERS else name, set())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add((nid, tuple(tuple(a) if isinstance(a, list) else a for a in args)))
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def span(self, name: str, layer: str, fn, *args):
        """Run fn(*args) inside one span (the benchmark's root span)."""
        return self.wrap(fn, name, layer)(*args)

    def install(self):
        """Import the target modules and patch the targets in every loaded
        dynell module, by identity."""
        targets = [(layer, _module(modname), modname, clsname, attrs)
                   for layer, modname, clsname, attrs in TARGETS]
        modules = [m for k, m in sys.modules.items() if k == "dynell" or k.startswith("dynell.")]
        # R assemblies are the misses of _r_array's lru_cache
        self.r_cache = _require(_module("dynell.rmatrix"), "_r_array", "dynell.rmatrix")
        self._r_misses0 = _require(self.r_cache, "cache_info", "dynell.rmatrix._r_array")().misses
        for layer, mod, modname, clsname, attrs in targets:
            owner = _require(mod, clsname, modname) if clsname else mod
            where = f"{modname}.{clsname}" if clsname else modname
            prefix = f"{layer}.{clsname}." if clsname else f"{layer}."
            for attr in attrs:
                orig = _require(owner, attr, where)
                if clsname:
                    if isinstance(orig, classmethod):
                        setattr(owner, attr, classmethod(self.wrap(orig.__func__, prefix + attr, layer)))
                    else:
                        setattr(owner, attr, self.wrap(orig, prefix + attr, layer))
                    continue
                new = self.wrap(orig, prefix + attr, layer)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, new)
        registry = _require(_module("dynell.checks"), "_REGISTRY", "dynell.checks")
        if not isinstance(registry, dict):
            raise TracerError("tracing target dynell.checks._REGISTRY is not a dict")
        for check_name, runner in list(registry.items()):
            family = check_name.split(".", 1)[0]
            registry[check_name] = self.wrap(runner, f"checks.{family}", "checks")

    # -- analysis -------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, start, end

    def metrics(self) -> tuple[dict, dict]:
        """The per-layer metrics of the spans under the root span (the first
        one, the benchmark's pass), and the layer self times that check the
        partition."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        layer = np.asarray(self.name_layer, dtype=np.int32)[name]
        nid = {n: i for i, n in enumerate(self.names)}

        def layer_self(lname):
            return float(self_t[layer == LAYERS.index(lname)].sum())

        def of_name(n):
            return name == nid.get(n, -1)

        shift = layer == LAYERS.index("shiftcalc")
        is_eval = np.isin(name, [nid[n] for n in EVAL_NAMES if n in nid])
        special_calls = int((layer == LAYERS.index("special")).sum())
        dyn_w_calls = int(of_name("rmatrix.dyn_w").sum())
        rho = dur[of_name("special.rho_norm")]
        assemblies = self.r_cache.cache_info().misses - self._r_misses0

        m = {
            "special.calls": special_calls,
            "special.self_s": layer_self("special"),
            "special.distinct_ratio": len(self.keys.get("special", ())) / special_calls if special_calls else 0.0,
            "special.rho_norm_ms.p50": float(np.median(rho)) * 1e3 if len(rho) else 0.0,
            "rmatrix.r_assemblies": int(assemblies),
            "rmatrix.self_s": layer_self("rmatrix"),
            "rmatrix.dyn_w.calls": dyn_w_calls,
            "rmatrix.dyn_w.distinct_ratio": len(self.keys.get("rmatrix.dyn_w", ())) / dyn_w_calls if dyn_w_calls else 0.0,
            "shiftcalc.ops": int((shift & ~is_eval).sum()),
            "shiftcalc.build_s": float(self_t[shift & ~is_eval].sum()),
            "shiftcalc.evals": int(is_eval.sum()),
            "shiftcalc.eval_self_s": float(self_t[is_eval].sum()),
            "cli.render_s": layer_self("cli"),
        }
        for fam in CHECK_FAMILIES:
            m[f"checks.{fam}.s"] = float(dur[of_name(f"checks.{fam}")].sum())
        layer_sum = sum(layer_self(l) for l in LAYERS[1:])
        extra = {
            "traced_pass_s": float(dur[0]),
            "layer_self_s": {l: layer_self(l) for l in LAYERS},
            "layer_share_of_pass": layer_sum / float(dur[0]),
            "spans": int(len(dur)),
        }
        return m, extra

    def dump(self, path: str):
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path, name=name, parent=parent, start=start, end=end,
            names=np.array(self.names),
            layer=np.array([LAYERS[i] for i in self.name_layer]),
        )
