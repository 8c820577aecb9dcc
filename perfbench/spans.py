"""Span recorder and the instrumentation that wraps hypersine's public
functions and methods from outside the package.

A span is (name, start, end, parent).  Spans are appended to flat arrays
in the order they start, so a parent's index is always below its
children's.  Nothing under ``src/`` changes: ``Instrumentation`` swaps
every module binding of a listed function (``from .core import
exp_residual`` makes a second binding in ``suites``) and every listed
class attribute for a recording wrapper, and puts the originals back on
exit.  Callables returned by the ``exp_fn``/``sine_fn``-style factories
are wrapped too, so each evaluation of an exponential or a sine function
is a span of the layer that built it.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

import numpy as np


class SpanRecorder:
    """In-memory spans of one traced invocation plus boundary counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {}

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def clear(self):
        """Drop recorded spans and counters; wrappers stay valid."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        del self._stack[1:]
        self.counters.clear()

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, fn, name, on_return=None):
        """``fn`` recording one span per call; ``on_return(args, result)``
        runs after the span closes, to take counts at the same boundary."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, self._clock

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def arrays(self):
        """(name ids, parent indices, starts, ends) as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.array(self.start), np.array(self.end))

    def save(self, path):
        """Write the spans once, as a numpy archive."""
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def outermost(name, parent):
    """Mask of spans with no ancestor of the same name, so summing their
    durations counts every moment once where a layer's spans nest."""
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent)
    bit = np.left_shift(np.int64(1), name)
    ancestors = np.zeros(len(name), dtype=np.int64)
    has_parent = parent >= 0
    pidx = parent[has_parent]
    while True:
        updated = ancestors.copy()
        updated[has_parent] = ancestors[pidx] | bit[pidx]
        if np.array_equal(updated, ancestors):
            break
        ancestors = updated
    return (ancestors & bit) == 0


def summarize(names, name, parent, start, end):
    """Per span name: calls, busy seconds (outermost spans) and self
    seconds."""
    name = np.asarray(name)
    parent = np.asarray(parent)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    selfs = self_times(parent, start, end)
    outer = outermost(name, parent)
    out = {}
    for nid, label in enumerate(names):
        mask = name == nid
        out[label] = {
            "calls": int(mask.sum()),
            "busy_s": float(dur[mask & outer].sum()),
            "self_s": float(selfs[mask].sum()),
        }
    return out


def child_parents(names, name, parent, child, of):
    """Number of distinct ``of`` spans that have at least one direct
    ``child`` span (e.g. convolve calls that missed the cache)."""
    if child not in names or of not in names:
        return 0
    name = np.asarray(name)
    parent = np.asarray(parent)
    kids = parent[(name == names.index(child)) & (parent >= 0)]
    kids = np.unique(kids)
    return int((name[kids] == names.index(of)).sum())


class _TracedCallable:
    """Stands in for a callable a factory returned; calls are spans."""

    __slots__ = ("_inner", "_call")

    def __init__(self, inner, call):
        self._inner = inner
        self._call = call

    def __call__(self, *args):
        return self._call(*args)

    @property
    def __class__(self):
        # isinstance() consults __class__, so type checks in the package
        # take the same branch traced and untraced.
        return type(self._inner)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __len__(self):
        return len(self._inner)


# (module, function, span name, span name for calls of what it returns).
# A span name of None records no span for the factory call itself.
FUNCTIONS = [
    ("suites", "run_suite", "suites.run_suite", None),
    ("core", "exp_residual", "core.residual", None),
    ("core", "sine_residual", "core.residual", None),
    ("core", "power_identity_check", "core.residual", None),
    ("core", "sine_space", "core.sine_space", None),
    ("core", "exponentials", "core.exponentials", None),
    ("polyhg", "linearize", "polyhg.linearize", None),
    ("polyhg", "eval_P", "polyhg.eval", None),
    ("polyhg", "eval_P_with_derivative", "polyhg.eval", None),
    ("polyhg", "exp_values", "polyhg.tabulate", None),
    ("polyhg", "sine_values", "polyhg.tabulate", None),
    ("polyhg", "exp_fn", "polyhg.tabulate", "polyhg.eval"),
    ("polyhg", "sine_fn", "polyhg.tabulate", "polyhg.eval"),
    ("polyhg", "reconstruct_sine", "polyhg.reconstruct", None),
    ("su2", "phi_values", "su2.tabulate", None),
    ("su2", "dphi_values", "su2.tabulate", None),
    ("su2", "phi_fn", "su2.tabulate", "su2.eval"),
    ("su2", "dphi_fn", "su2.tabulate", "su2.eval"),
    ("su2", "additive_fn", None, "su2.eval"),
    ("su2", "recurrence_residual", "su2.recurrence", None),
    ("su2", "propagate_sine", "su2.recurrence", None),
    ("sturm", "solve_phi", "sturm.solve_phi", None),
    ("sturm", "solve_sine", "sturm.solve_sine", None),
    ("sturm", "dlambda_phi", "sturm.dlambda_phi", None),
    ("sturm", "cosh_hypergroup_check", "sturm.cosh_check", None),
    ("coset", "coset_exponential", None, "coset.eval"),
    ("coset", "coset_sine", None, "coset.eval"),
    ("coset", "falsify_dalembert_alpha", "coset.falsify", None),
    ("coset", "falsify_square_term", "coset.falsify", None),
]

# (module, class, method, span name, span name for calls of what it returns).
METHODS = [
    ("suites", "SuiteReport", "to_json", "suites.serialize", None),
    ("suites", "SuiteReport", "to_csv", "suites.serialize", None),
    ("polyhg", "PolynomialHypergroup", "convolve", "polyhg.convolve", None),
    ("polyhg", "PolynomialHypergroup", "build_table", "polyhg.table", None),
    ("multipoly", "ProductPolyHypergroup", "convolve", "multipoly.convolve",
     None),
    ("multipoly", "ProductPolyHypergroup", "exp_fn", None, "multipoly.eval"),
    ("multipoly", "ProductPolyHypergroup", "multi_sine", None,
     "multipoly.eval"),
    ("multipoly", "ProductPolyHypergroup", "fit_coefficients", "multipoly.fit",
     None),
    ("su2", "Su2Hypergroup", "convolve", "su2.convolve", None),
    ("coset", "CosetHypergroup", "convolve", "coset.convolve", None),
]


class Instrumentation:
    """Patches for one loaded ``hypersine`` package, recording into
    ``recorder`` while installed.  A listed name the package does not have
    is skipped, so the metrics built on it read zero."""

    def __init__(self, recorder, package="hypersine"):
        self.recorder = recorder
        # Weights in each distinct convolution measure a polynomial
        # hypergroup handed out, keyed by (hypergroup, n, k); the key holds
        # the hypergroup so its identity cannot be reused while recording.
        self.table_weights = {}
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        self._patches = []
        for mod_name, attr, span, result_span in FUNCTIONS:
            original = getattr(sys.modules.get(f"{package}.{mod_name}"), attr,
                               None)
            if original is None:
                continue
            wrapper = self._wrap(original, span, result_span)
            for mod in modules:
                for bound_name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, bound_name, original,
                                              wrapper))
        for mod_name, cls_name, attr, span, result_span in METHODS:
            cls = getattr(sys.modules.get(f"{package}.{mod_name}"), cls_name,
                          None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            self._patches.append(
                (cls, attr, original, self._wrap(original, span, result_span)))

    def _on_return(self, span):
        rec = self.recorder
        if span == "core.residual":
            return lambda args, result: rec.add("core.residual_samples",
                                                result.samples)
        if span in ("sturm.solve_phi", "sturm.solve_sine", "sturm.dlambda_phi"):
            return lambda args, result: rec.add("sturm.rk4_steps",
                                                len(result.grid) - 1)
        if span == "polyhg.convolve":
            weights = self.table_weights

            def note(args, result):
                hg, n, k = args[:3]
                weights[(hg, min(n, k), max(n, k))] = len(result)
            return note
        return None

    def _wrap(self, fn, span, result_span):
        rec = self.recorder
        if result_span is not None:
            def make(*args, **kwargs):
                inner = fn(*args, **kwargs)
                return _TracedCallable(inner, rec.wrap(inner, result_span))
            return make if span is None else rec.wrap(make, span)
        return rec.wrap(fn, span, self._on_return(span))

    @contextlib.contextmanager
    def installed(self):
        """Record spans into a cleared recorder while the block runs."""
        self.recorder.clear()
        self.table_weights.clear()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self.recorder
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)


def layer_values(recorder, table_weights):
    """Per-layer values of one traced invocation, by metric name; the
    report-based and machine-relative ones are added by run.py."""
    names = recorder.names
    name, parent, start, end = recorder.arrays()
    summary = summarize(names, name, parent, start, end)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def get(span, key):
        return summary.get(span, empty)[key]

    conv_calls = get("polyhg.convolve", "calls")
    misses = child_parents(names, name, parent, "polyhg.linearize",
                           "polyhg.convolve")
    counters = recorder.counters
    return {
        "suites.self_s": get("suites.run_suite", "self_s"),
        "suites.serialize_s": get("suites.serialize", "busy_s"),
        "core.residual_s": get("core.residual", "self_s"),
        "core.residual_samples": counters.get("core.residual_samples", 0),
        "core.sine_space_s": get("core.sine_space", "busy_s"),
        "core.exponentials_s": get("core.exponentials", "busy_s"),
        "polyhg.table_s": get("polyhg.table", "busy_s"),
        "polyhg.linearize_calls": get("polyhg.linearize", "calls"),
        "polyhg.convolve_calls": conv_calls,
        "polyhg.convolve_hit_ratio": (1.0 - misses / conv_calls
                                      if conv_calls else 0.0),
        # computed, not measured: 8 bytes per stored float64 weight
        "polyhg.table_bytes": 8 * sum(table_weights.values()),
        "polyhg.convolve_s": get("polyhg.convolve", "busy_s"),
        "polyhg.eval_s": get("polyhg.eval", "busy_s"),
        "polyhg.eval_calls": get("polyhg.eval", "calls"),
        "polyhg.tabulate_s": get("polyhg.tabulate", "busy_s"),
        "polyhg.reconstruct_s": get("polyhg.reconstruct", "busy_s"),
        "multipoly.convolve_s": get("multipoly.convolve", "busy_s"),
        "multipoly.convolve_calls": get("multipoly.convolve", "calls"),
        "multipoly.eval_s": get("multipoly.eval", "busy_s"),
        "multipoly.eval_calls": get("multipoly.eval", "calls"),
        "multipoly.fit_s": get("multipoly.fit", "busy_s"),
        "su2.convolve_s": get("su2.convolve", "busy_s"),
        "su2.convolve_calls": get("su2.convolve", "calls"),
        "su2.eval_s": get("su2.eval", "busy_s"),
        "su2.tabulate_s": get("su2.tabulate", "busy_s"),
        "su2.recurrence_s": get("su2.recurrence", "busy_s"),
        "sturm.solve_phi_s": get("sturm.solve_phi", "busy_s"),
        "sturm.solve_sine_s": get("sturm.solve_sine", "busy_s"),
        "sturm.dlambda_phi_s": get("sturm.dlambda_phi", "busy_s"),
        "sturm.cosh_check_s": get("sturm.cosh_check", "busy_s"),
        "sturm.rk4_steps": counters.get("sturm.rk4_steps", 0),
        "coset.convolve_s": get("coset.convolve", "busy_s"),
        "coset.convolve_calls": get("coset.convolve", "calls"),
        "coset.eval_s": get("coset.eval", "busy_s"),
        "coset.eval_calls": get("coset.eval", "calls"),
        "coset.falsify_s": get("coset.falsify", "busy_s"),
    }
