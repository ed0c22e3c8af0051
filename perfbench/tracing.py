"""Per-layer tracing of fockprop from outside the library.

`Tracer.installed()` wraps the public functions of each layer module (and
the few methods that carry a layer's work, such as the eigendecomposition
in `ExactPropagator.__init__`) and rebinds every `fockprop` module
attribute that referred to the original, so calls made inside the library
are recorded too. Each call becomes a span (id, parent id, name, start,
end, raised). Work counters are computed from the arguments and results at
the same boundaries. Spans stay in memory; the caller writes them once at
the end.

Per-element hot methods such as `FockBasis.index` stay unwrapped, so the
cost of tracing is bounded and shows in `trace.overhead_ratio`.

Layer metrics (per pass; `_s` values are span self time, that is the
duration minus the time covered by child spans, except `cli.validate_s`,
which is the whole `validate_config` call):

- `<layer>.self_s`, `<layer>.calls`, `<layer>.errors` for every layer.
- quantize: `wick_*` from `wick_quantize` (nnz counts nonzero entries of
  the result, fill is nnz over size^2); `antiwick_*` from
  `antiwick_quantize_function` (nodes from the rule, GFLOP computed as
  8 size^2 nodes, the complex rank-`nodes` update); `rule_s` from
  `gauss_hermite_rule`.
- propagate: `eigh_*` from `ExactPropagator.__init__`; `evals_per_eigh`
  is (operator + apply calls) per eigh call; `operator_s` and
  `dense_operators` from `ExactPropagator.operator`; `elements` counts
  `coherent_matrix_element` calls; `slice_power_s` is the self time of
  `chernoff_propagator` and `slice_matmuls` the matrix products binary
  powering needs for each N.
- symbols: `eval_*` from `PolySymbol.evaluate` / `eval_bilinear`;
  `convert_s` from the heat-series conversions.
- fock: `basis_states` summed over constructed bases; `coherent_s` from
  `coherent_vector`.
- galerkin: `members` summed over sweeps; `h_builds` counts
  `reduce_hamiltonian` calls and `h_rebuild_ratio` divides them by the
  distinct (symbol, n, M, route) keys built.
- cli: `bytes_written` sums the files in each run's out dir after
  `run_config` returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("symbols", "fock", "quantize", "propagate", "galerkin", "cli")

# methods that carry a layer's work; everything else wrapped is a public
# module-level function
_METHODS = {
    "symbols": (("PolySymbol", "evaluate"), ("PolySymbol", "eval_bilinear")),
    "fock": (("FockBasis", "__init__"), ("OperatorMatrix", "hermitian_defect")),
    "propagate": (
        ("ExactPropagator", "__init__"),
        ("ExactPropagator", "operator"),
        ("ExactPropagator", "apply"),
    ),
}

# metric -> span names whose self time it sums
_SELF_TIMES = {
    "quantize.wick_s": ("quantize.wick_quantize",),
    "quantize.antiwick_s": ("quantize.antiwick_quantize_function",),
    "quantize.rule_s": ("quantize.gauss_hermite_rule",),
    "propagate.eigh_s": ("propagate.ExactPropagator.__init__",),
    "propagate.operator_s": ("propagate.ExactPropagator.operator",),
    "propagate.slice_power_s": ("propagate.chernoff_propagator",),
    "symbols.eval_s": ("symbols.PolySymbol.evaluate", "symbols.PolySymbol.eval_bilinear"),
    "symbols.convert_s": (
        "symbols.wick_from_antinormal",
        "symbols.antinormal_from_wick",
        "symbols.gross_laplacian",
    ),
    "fock.coherent_s": ("fock.coherent_vector",),
}

# metric -> span name whose call count it reports
_CALLS = {
    "quantize.wick_calls": "quantize.wick_quantize",
    "propagate.eigh_calls": "propagate.ExactPropagator.__init__",
    "propagate.dense_operators": "propagate.ExactPropagator.operator",
    "propagate.elements": "propagate.coherent_matrix_element",
    "galerkin.h_builds": "galerkin.reduce_hamiltonian",
}

# units other than the default: `s` for names ending in `_s`, else `count`
_UNITS = {
    "quantize.wick_fill": "1",
    "quantize.antiwick_gflop": "GFLOP",
    "quantize.antiwick_gflop_per_s": "GFLOP/s",
    "propagate.evals_per_eigh": "1",
    "galerkin.h_rebuild_ratio": "1",
    "cli.bytes_written": "B",
    "trace.overhead_ratio": "1",
}


def _power_matmuls(n: int) -> int:
    """Matrix products numpy's binary powering spends on M**n."""
    return n.bit_length() + bin(n).count("1") - 2


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# counters: span name -> fn(tracer, bound arguments, result)


def _count_wick(t, a, op):
    t.counts["quantize.wick_nnz"] += int(np.count_nonzero(op.mat))
    t.counts["wick_cells"] += op.mat.size


def _count_antiwick(t, a, op):
    nodes, size = a["rule"].count, a["basis"].size
    t.counts["quantize.antiwick_nodes"] += nodes
    t.counts["quantize.antiwick_gflop"] += 8 * size * size * nodes / 1e9


def _count_eval(t, a, out):
    points = np.asarray(a["points"])
    t.counts["symbols.eval_points"] += len(points) if points.ndim == 2 else 1


def _count_bilinear(t, a, out):
    t.counts["symbols.eval_points"] += 1


def _count_eigh(t, a, out):
    t.counts["propagate.eigh_states"] += a["h"].basis.size


def _count_apply(t, a, out):
    t.counts["propagator_applies"] += 1


def _count_slices(t, a, out):
    t.counts["propagate.slice_matmuls"] += _power_matmuls(a["sched"].slices)


def _count_basis(t, a, out):
    t.counts["fock.basis_states"] += a["self"].size


def _count_sweep(t, a, out):
    t.counts["galerkin.members"] += len(a["flag"].ns)


def _count_reduce(t, a, out):
    w = a["w"]
    t.h_keys.add((w.modes, tuple(w.terms.items()), a["n"],
                  a["basis_n"].max_quanta, a["route"]))


def _count_run(t, a, out):
    t.counts["cli.bytes_written"] += _dir_bytes(a["out_dir"])


_COUNTERS = {
    "quantize.wick_quantize": _count_wick,
    "quantize.antiwick_quantize_function": _count_antiwick,
    "symbols.PolySymbol.evaluate": _count_eval,
    "symbols.PolySymbol.eval_bilinear": _count_bilinear,
    "propagate.ExactPropagator.__init__": _count_eigh,
    "propagate.ExactPropagator.apply": _count_apply,
    "propagate.chernoff_propagator": _count_slices,
    "fock.FockBasis.__init__": _count_basis,
    "galerkin.galerkin_sweep": _count_sweep,
    "galerkin.reduce_hamiltonian": _count_reduce,
    "cli.run_config": _count_run,
}


def _targets():
    """(span name, owner, attribute, original) for everything to wrap."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"fockprop.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                out.append((f"{layer}.{name}", module, name, obj))
        for cls_name, method in _METHODS.get(layer, ()):
            cls = getattr(module, cls_name)
            out.append((f"{layer}.{cls_name}.{method}", cls, method,
                        vars(cls)[method]))
    return out


class Tracer:
    """Span recorder for fockprop calls; one instance per benchmark run."""

    def __init__(self):
        # spans[i] = (parent id or -1, name, start, end, raised)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.h_keys: set = set()    # distinct Hamiltonians built this pass
        self._targets = _targets()
        originals = {id(t[3]) for t in self._targets}
        # every fockprop module attribute bound to a wrapped function
        self._aliases = [
            (module, name, obj)
            for mod_name, module in list(sys.modules.items())
            if mod_name == "fockprop" or mod_name.startswith("fockprop.")
            for name, obj in vars(module).items()
            if id(obj) in originals
        ]
        self._wrappers = {id(orig): self._wrap(span, orig)
                          for span, _, _, orig in self._targets}

    def _wrap(self, span: str, fn):
        counter = _COUNTERS.get(span)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (parent, span, start, end, raised)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route fockprop calls through the span wrappers inside the block."""
        for _, owner, attr, orig in self._targets:
            setattr(owner, attr, self._wrappers[id(orig)])
        for module, name, orig in self._aliases:
            setattr(module, name, self._wrappers[id(orig)])
        try:
            yield self
        finally:
            for _, owner, attr, orig in self._targets:
                setattr(owner, attr, orig)
            for module, name, orig in self._aliases:
                setattr(module, name, orig)

    @staticmethod
    def unit(metric: str) -> str:
        """Unit of a layer metric: seconds for `_s`, else a count unless listed."""
        return _UNITS.get(metric, "s" if metric.endswith("_s") else "count")

    def take_pass(self, first_span: int) -> dict:
        """Layer metrics of the spans recorded since `first_span`; resets counters."""
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for parent, _, start, end, _ in spans:
            if parent >= first_span:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        calls = Counter()
        errors = Counter()
        for offset, (_, name, start, end, raised) in enumerate(spans):
            self_time[name] += end - start - child_time[first_span + offset]
            calls[name] += 1
            errors[name] += raised
        validate = sum(end - start for _, name, start, end, _ in spans
                       if name == "cli.validate_config")

        m: dict[str, float] = {}
        for layer in LAYERS:
            prefix = layer + "."
            m[f"{layer}.self_s"] = sum(v for k, v in self_time.items() if k.startswith(prefix))
            m[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
            m[f"{layer}.errors"] = sum(v for k, v in errors.items() if k.startswith(prefix))
        for metric, names in _SELF_TIMES.items():
            m[metric] = sum(self_time[n] for n in names)
        for metric, name in _CALLS.items():
            m[metric] = calls[name]
        c = self.counts
        for metric in ("quantize.wick_nnz", "quantize.antiwick_nodes",
                       "quantize.antiwick_gflop", "symbols.eval_points",
                       "propagate.eigh_states", "propagate.slice_matmuls",
                       "fock.basis_states", "galerkin.members",
                       "cli.bytes_written"):
            m[metric] = c[metric]
        m["quantize.wick_fill"] = _ratio(c["quantize.wick_nnz"], c["wick_cells"])
        m["quantize.antiwick_gflop_per_s"] = _ratio(
            c["quantize.antiwick_gflop"], m["quantize.antiwick_s"])
        m["propagate.evals_per_eigh"] = _ratio(
            m["propagate.dense_operators"] + c["propagator_applies"],
            m["propagate.eigh_calls"])
        m["galerkin.h_rebuild_ratio"] = _ratio(m["galerkin.h_builds"], len(self.h_keys))
        m["cli.validate_s"] = validate
        m["trace.spans"] = len(spans)
        self.counts = Counter()
        self.h_keys = set()
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
