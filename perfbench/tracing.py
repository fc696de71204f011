"""Call tracing for the benchmark's traced runs.

Wrappers are installed from outside the library, on the module attributes
that tnn's call sites look up at run time: every ``tnn.*`` module global and
every ``scipy.optimize`` attribute that is the traced function.  Nothing in
``src/tnn`` changes.

Each wrapped call adds to its function's call count and busy time (inclusive)
and to its layer's self time (its own duration minus that of the wrapped
calls nested in it).  Calls that happen a few hundred times per operation or
less also keep a span ``(id, name, start, end, parent id, op index)`` in
memory; the high-frequency primitives (``SPAN_FREE``) keep counters only.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

# (module that defines the function, attribute name, layer, metric prefix).
# The metric prefix names the call site the issue tracks; the layer is the
# module whose self time the call counts toward.
TARGETS = (
    ("tnn.tensor_core", "mode_product", "tensor_core", "tensor_core.mode_product"),
    ("tnn.tensor_core", "multilinear_contract", "tensor_core",
     "norms.multilinear_contract"),
    ("tnn.subspace", "project", "subspace", "subspace.project"),
    ("tnn.subspace", "support_project", "subspace", "subspace.support_project"),
    ("tnn.subspace", "operator_norm_chain", "subspace",
     "subspace.operator_norm_chain"),
    ("tnn.norms", "spectral_certified_upper", "norms",
     "norms.spectral_certified_upper"),
    ("tnn.norms", "spectral_hopm", "norms", "norms.spectral_hopm"),
    ("tnn.norms", "nuclear_sandwich", "norms", "norms.nuclear_sandwich"),
    ("scipy.optimize", "linprog", "norms", "norms.linprog"),
    ("scipy.optimize", "minimize", "norms", "norms.minimize"),
    ("tnn.decomp", "check_weak_decomp", "decomp", "decomp.check_weak_decomp"),
    ("tnn.decomp", "check_nuclear_decomp", "decomp", "decomp.check_nuclear_decomp"),
    ("tnn.decomp", "check_nuclear_lower_bound", "decomp",
     "decomp.check_nuclear_lower_bound"),
    ("tnn.subdiff", "is_subgradient", "subdiff", "subdiff.is_subgradient"),
    ("tnn.subdiff", "z_membership", "subdiff", "subdiff.z_membership"),
    ("tnn.subdiff", "probe_tau", "subdiff", "subdiff.probe_tau"),
    ("tnn.subdiff", "find_z_witness", "subdiff", "subdiff.find_z_witness"),
    ("tnn.rpca", "certify", "rpca", "rpca.certify"),
    ("tnn.rpca", "neumann_certificate", "rpca", "rpca.neumann_certificate"),
    ("tnn.rpca", "golfing_certificate", "rpca", "rpca.golfing_certificate"),
    ("tnn.rpca", "concentration_trial", "rpca", "rpca.concentration_trial"),
    ("tnn.rpca", "solve_matrix_rpca", "rpca", "rpca.solve_matrix_rpca"),
)

LAYERS = ("tensor_core", "subspace", "norms", "decomp", "subdiff", "rpca", "cli")

# Called thousands of times per operation: counted, not recorded as spans.
SPAN_FREE = {"tensor_core.mode_product", "norms.multilinear_contract",
             "subspace.project", "subspace.support_project"}

# Only calls and a count are reported for these, as the issue lists them.
CALLS_ONLY = {"tensor_core.mode_product", "norms.multilinear_contract",
              "subspace.support_project"}


@dataclass
class _Frame:
    span_id: int | None
    child_s: float = 0.0


@dataclass
class Counters:
    """Everything one traced pass records."""

    calls: dict = field(default_factory=dict)
    busy_s: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    spans: list = field(default_factory=list)
    bnb_tol_calls: int = 0
    bnb_tol_met: int = 0
    bnb_threshold_calls: int = 0
    bnb_threshold_decided: int = 0
    bnb_refused: int = 0
    neumann_terms: int = 0


class Tracer:
    """Installs and removes the wrappers; collects one ``Counters`` per
    traced pass (``begin_pass`` starts a new one)."""

    def __init__(self):
        self.counters = Counters()
        self._stack = []
        self._op = -1
        self._next_span = 0
        self._patches = []  # (owner, attribute, original)

    def begin_pass(self):
        self.counters = Counters()

    def begin_op(self, index):
        self._op = index

    def install(self):
        import scipy.optimize

        owners = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "tnn" or name.startswith("tnn."))]
        owners.append(scipy.optimize)
        for module_name, attr, layer, metric in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, layer, metric)
            for owner in owners:
                if getattr(owner, attr, None) is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, layer, metric):
        observe = _OBSERVERS.get(metric)
        signature = inspect.signature(fn) if observe else None
        keep_span = metric not in SPAN_FREE
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            c = self.counters
            if keep_span:
                span_id = self._next_span
                self._next_span += 1
                parent = next((f.span_id for f in reversed(stack)
                               if f.span_id is not None), None)
            else:
                span_id = None
            frame = _Frame(span_id)
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                c.calls[metric] = c.calls.get(metric, 0) + 1
                c.busy_s[metric] = c.busy_s.get(metric, 0.0) + duration
                c.self_s[layer] += duration - frame.child_s
                if stack:
                    stack[-1].child_s += duration
                if keep_span:
                    c.spans.append((span_id, metric, start, end, parent, self._op))
                if observe:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(c, bound.arguments, result, error)

        wrapper.__wrapped__ = fn
        return wrapper


def _observe_bnb(c, arguments, result, error):
    if error is not None:
        if isinstance(error, sys.modules["tnn.errors"].ParameterError):
            c.bnb_refused += 1
        return
    lower, upper = result
    threshold = arguments["threshold"]
    if threshold is None:
        c.bnb_tol_calls += 1
        c.bnb_tol_met += (upper - lower) <= arguments["tol"]
    else:
        c.bnb_threshold_calls += 1
        c.bnb_threshold_decided += upper <= threshold or lower > threshold


def _observe_neumann(c, arguments, result, error):
    if error is None:
        c.neumann_terms += int(result[2])


_OBSERVERS = {
    "norms.spectral_certified_upper": _observe_bnb,
    "rpca.neumann_certificate": _observe_neumann,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(passes, cli_import_s):
    """Per-layer metrics from the traced passes' counters: counts from the
    first pass (they repeat exactly), times as the median over passes."""
    from statistics import median

    first = passes[0]
    out = {}
    for _, _, _, metric in TARGETS:
        out[f"{metric}.calls"] = (first.calls.get(metric, 0), "count")
        if metric not in CALLS_ONLY:
            out[f"{metric}.busy_s"] = (
                median(p.busy_s.get(metric, 0.0) for p in passes), "s")
    prefix = "norms.spectral_certified_upper"
    out[f"{prefix}.tol_calls"] = (first.bnb_tol_calls, "count")
    out[f"{prefix}.tol_met_ratio"] = (
        _ratio(first.bnb_tol_met, first.bnb_tol_calls), "ratio")
    out[f"{prefix}.threshold_calls"] = (first.bnb_threshold_calls, "count")
    out[f"{prefix}.threshold_decided_ratio"] = (
        _ratio(first.bnb_threshold_decided, first.bnb_threshold_calls), "ratio")
    out[f"{prefix}.refused"] = (first.bnb_refused, "count")
    out["rpca.neumann_certificate.terms"] = (first.neumann_terms, "count")
    for layer in LAYERS:
        if layer == "cli":
            out["cli.self_s"] = (cli_import_s, "s")
        else:
            out[f"{layer}.self_s"] = (
                median(p.self_s[layer] for p in passes), "s")
    return out


def count_digest_items(counters):
    """The deterministic part of one traced pass, for the determinism check."""
    c = counters
    return [sorted(c.calls.items()), c.bnb_tol_calls, c.bnb_tol_met,
            c.bnb_threshold_calls, c.bnb_threshold_decided, c.bnb_refused,
            c.neumann_terms]
