"""In-memory span recorder for the traced benchmark run.

`Recorder.install()` rebinds the public functions of each layer module of
`outlier_testing` to recording wrappers, everywhere the package holds a
name for them (so `sim.run_detector`, `cli.exact_error` and
`detectors.kl` are caught as well as the definitions).  Each call records
a span: layer, group, start, end, parent span and job id.  Self time is a
span's duration minus that of its direct children.

The program is not modified; `uninstall()` restores every binding.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# layer -> {function name: metric group}.  A function not named here is
# counted in its caller's layer.  `oracle.coordinate_laws` and
# `oracle.exponent_fit` are left out on purpose: they are helpers the
# simulator shares, and tracing them would put oracle spans into runs
# that never enumerate.
LAYERS = {
    "cli": {"main": "cli"},
    "simplex": {name: "simplex" for name in (
        "kl", "entropy", "mixture", "bhattacharyya", "chernoff", "chernoff_with_optimizer",
        "chernoff_pair_product", "geometric_midpoint", "empirical")},
    "detectors": {
        "score_table": "detectors.score_table", "run_detector": "detectors.run_detector",
        "decide": "detectors.decide", "decide_null_aware": "detectors.decide",
        **{name: "detectors.score_table.kind" for name in (
            "score_single_ml", "score_single_typ", "score_single_univ", "score_single_mu_only",
            "score_multi_typ", "score_multi_univ", "score_identical_univ")},
    },
    "oracle": {
        "exact_error": "oracle.exact_error", "max_error": "oracle.max_error",
        "enumerate_types": "oracle.enumerate_types",
        "brute_force_error": "oracle.brute_force_error",
    },
    "sim": {
        "estimate_error": "sim.estimate_error", "generate": "sim.generate",
        "clopper_pearson": "sim.clopper_pearson", "exponent_sweep": "sim.exponent_sweep",
        "estimate_max_error": "sim.estimate_max_error",
    },
    "exponents": {
        "exponent_univ_single": "exponents.univ", "exponent_univ_multi": "exponents.univ",
        "min_over_kl_ball": "exponents.kl_ball",
        **{name: "exponents.other" for name in (
            "exponent_both_known", "exponent_multi_known", "exponent_multi_typ_known",
            "grid_exponent_univ_single", "thm_single_lower_bound", "thm_multi_lower_bound")},
    },
}
IO_METHODS = ("from_csv", "from_binary")  # ObservationMatrix readers -> detectors.io


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kind(kind) -> str:
    return getattr(kind, "value", kind)


def _tuples(args, kwargs, result):
    """T^M ordered type tuples an exact_error call covers (computed, not counted)."""
    family, n, k = _arg(args, kwargs, 1, "family"), _arg(args, kwargs, 3, "n"), _arg(args, kwargs, 4, "k")
    return math.comb(n + k - 1, k - 1) ** family.m


# group -> (work count from (args, kwargs, result), breakdown key from (args, kwargs))
COUNTERS = {
    "detectors.score_table": (
        lambda a, kw, r: _arg(a, kw, 1, "obs").m,
        lambda a, kw: f"{_kind(_arg(a, kw, 0, 'kind'))} M={_arg(a, kw, 1, 'obs').m}"),
    "oracle.exact_error": (
        _tuples,
        lambda a, kw: f"{_kind(_arg(a, kw, 0, 'kind'))} M={_arg(a, kw, 1, 'family').m} "
                      f"K={_arg(a, kw, 4, 'k')}"),
    "sim.estimate_error": (
        lambda a, kw, r: r.trials,
        lambda a, kw: f"{_kind(_arg(a, kw, 0, 'cfg').kind)} M={_arg(a, kw, 0, 'cfg').family.m}"),
    "exponents.univ": (lambda a, kw, r: r.iterations, None),
    "exponents.kl_ball": (lambda a, kw, r: r.iterations, None),
}

# span record fields
LAYER, GROUP, START, END, PARENT, JOB, COUNT, KEY, IN_GROUP, IN_LAYER = range(10)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._in_group: dict[str, int] = defaultdict(int)
        self._in_layer: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    def _wrap(self, layer: str, group: str, fn):
        spans, stack, in_group, in_layer = self.spans, self._stack, self._in_group, self._in_layer
        count, key = COUNTERS.get(group, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, group, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0, None,
                   in_group[group] > 0, in_layer[layer] > 0]
            stack.append(len(spans))
            spans.append(rec)
            in_group[group] += 1
            in_layer[layer] += 1
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                in_group[group] -= 1
                in_layer[layer] -= 1
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, kwargs, result)
            if key is not None:
                rec[KEY] = key(args, kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "outlier_testing" or name.startswith("outlier_testing."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"outlier_testing.{layer}")
            for name, group in names.items():
                fn = getattr(home, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(layer, group, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        matrix = getattr(sys.modules.get("outlier_testing.detectors"), "ObservationMatrix", None)
        for name in IO_METHODS:
            raw = vars(matrix).get(name) if matrix is not None else None
            if not isinstance(raw, classmethod):
                self.missing.append(f"detectors.ObservationMatrix.{name}")
                continue
            self._undo.append((matrix, name, raw))
            setattr(matrix, name, classmethod(self._wrap("detectors", "detectors.io", raw.__func__)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.job = -1


def summarize(spans: list[list]) -> dict:
    """Calls, inclusive and self seconds and work counts per group; self and
    inclusive seconds per layer.

    Inclusive time sums only the outermost spans of a group or layer, so a
    simplex call nested in another (chernoff inside chernoff_pair_product)
    is not counted twice.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    groups: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
    layers: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "s": 0.0})
    keyed: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0])
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        g = groups[rec[GROUP]]
        g["calls"] += 1
        g["self_s"] += dur - child[i]
        g["count"] += rec[COUNT]
        if not rec[IN_GROUP]:
            g["s"] += dur
        layer = layers[rec[LAYER]]
        layer["self_s"] += dur - child[i]
        if not rec[IN_LAYER]:
            layer["s"] += dur
        if rec[KEY] is not None:
            entry = keyed[(rec[GROUP], rec[KEY])]
            entry[0] += 1
            entry[1] += dur
            entry[2] += rec[COUNT]
    return {"groups": dict(groups), "layers": dict(layers), "keyed": dict(keyed)}
