"""Spans and counters for the traced benchmark run, installed from outside
curvlab.

A ``Tracer`` replaces a fixed set of curvlab entry points with wrappers while
it is installed: the ``Jet`` and ``Dual`` arithmetic methods, ``numpy.einsum``,
``gkd_contract`` as imported into ``curvlab.invariants``, and the invariants
and conformal functions a trial calls.  Stack fields get their spans from the
trial code itself, which forces them in dependency order.  Untraced runs use
``NULL_TRACER`` and install nothing.

Every span records its name, start, end, parent span and trial id; spans stay
in memory until the run ends.  A layer's time is self time: the span's
duration minus the time of the spans nested in it.  ``Jet.__mul__`` runs tens
of thousands of times per trial, so it is not kept as individual spans: each
call's duration is added to its parent's child time and to the trial's
``jets.mul`` total.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

_now = time.perf_counter

# Spans opened by the trial code or by the wrappers below.
SPAN_LAYERS = (
    "models.build",
    "geometry.metric_inv", "geometry.gamma", "geometry.riemann",
    "geometry.ricci_schouten", "geometry.weyl", "geometry.cotton",
    "geometry.bach", "geometry.div",
    "tensors.raise", "tensors.gkd",
    "invariants.xi", "invariants.pfaffian", "invariants.phi_chain",
    "conformal.rescale", "conformal.linearize",
    "report.check",
)
LEAF_LAYERS = ("jets.mul",)
COUNTERS = (
    "jets.mul_calls", "jets.addsub_calls", "jets.d_calls",
    "jets.inverse_calls", "jets.dual_ops",
    "tensors.gkd_calls", "tensors.einsum_calls",
)
ROOT = "trial"

# (curvlab module, function name, span layer) wrapped as spans.
_SPAN_FUNCTIONS = (
    ("invariants", "gkd_contract", "tensors.gkd"),
    ("invariants", "xi_k", "invariants.xi"),
    ("invariants", "pfaffian_of", "invariants.pfaffian"),
    ("invariants", "rho_phi", "invariants.phi_chain"),
    ("invariants", "phi_w_c_form", "invariants.phi_chain"),
    ("conformal", "rescale", "conformal.rescale"),
    ("conformal", "linearize", "conformal.linearize"),
)
_JET_COUNTED = (("__add__", "jets.addsub_calls"),
                ("__radd__", "jets.addsub_calls"),
                ("__sub__", "jets.addsub_calls"),
                ("d", "jets.d_calls"),
                ("inverse", "jets.inverse_calls"))
_DUAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
             "inverse", "sqrt", "exp", "d")
_GKD_SPAN = "tensors.gkd"


class _NullTracer:
    """Tracing off: spans are a shared no-op context."""

    _null = nullcontext()

    def span(self, name):
        return self._null


NULL_TRACER = _NullTracer()


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close()
        return False


class Tracer:
    """Collects spans and counters; ``installed()`` wraps curvlab."""

    def __init__(self):
        # finished spans: (id, name, start, end, parent id, trial, child time)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.trial = None
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.leaf_s = dict.fromkeys(LEAF_LAYERS, 0.0)
        self._first_span = 0

    # -- spans -----------------------------------------------------------------

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, _now(), 0.0, parent,
                            self.trial, 0.0])

    def _close(self):
        rec = self._stack.pop()
        rec[3] = _now()
        if self._stack:
            self._stack[-1][6] += rec[3] - rec[2]
        self.spans.append(tuple(rec))

    def _leaf(self, name, dt):
        self.leaf_s[name] += dt
        self._stack[-1][6] += dt

    # -- trials ----------------------------------------------------------------

    def begin_trial(self, trial_id):
        """Reset the per-trial counters and open the trial's root span."""
        self.trial = trial_id
        for key in self.counts:
            self.counts[key] = 0
        for key in self.leaf_s:
            self.leaf_s[key] = 0.0
        self._first_span = len(self.spans)
        self._open(ROOT)

    def end_trial(self) -> dict:
        """Close the root span; return this trial's per-layer metrics.

        Every layer is present: one that did not run reads 0.
        """
        self._close()
        out = {name + "_s": 0.0 for name in SPAN_LAYERS + LEAF_LAYERS}
        for _, name, start, end, _, _, child in self.spans[self._first_span:]:
            if name != ROOT:
                out[name + "_s"] += (end - start) - child
        for name, total in self.leaf_s.items():
            out[name + "_s"] = total
        out.update(self.counts)
        return out

    def dump(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "trial", "child_s")
        return [dict(zip(keys, rec)) for rec in self.spans]

    # -- wrappers --------------------------------------------------------------

    def installed(self, cl):
        """Context manager: wrap curvlab's entry points for its duration."""
        return _Installed(self, cl)

    def _wrappers(self, cl):
        """(owner, attribute, wrapper) triples for one curvlab import."""
        counts = self.counts
        out = []

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def spanned(fn, layer):
            is_gkd = layer == _GKD_SPAN

            def wrapper(*args, **kwargs):
                if is_gkd:
                    counts["tensors.gkd_calls"] += 1
                self._open(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close()
            return wrapper

        jet = cl.jets.Jet
        mul = vars(jet)["__mul__"]

        def timed_mul(a, b):
            counts["jets.mul_calls"] += 1
            t0 = _now()
            r = mul(a, b)
            self._leaf("jets.mul", _now() - t0)
            return r

        out += [(jet, "__mul__", timed_mul), (jet, "__rmul__", timed_mul)]
        for attr, key in _JET_COUNTED:
            out.append((jet, attr, counted(vars(jet)[attr], key)))
        dual = cl.jets.Dual
        for attr in _DUAL_OPS:
            out.append((dual, attr, counted(vars(dual)[attr], "jets.dual_ops")))
        out.append((cl.numpy, "einsum",
                    counted(cl.numpy.einsum, "tensors.einsum_calls")))
        for module, attr, layer in _SPAN_FUNCTIONS:
            owner = getattr(cl, module)
            out.append((owner, attr, spanned(vars(owner)[attr], layer)))
        return out


class _Installed:
    def __init__(self, tracer, cl):
        self.tracer, self.cl = tracer, cl
        self.saved = []

    def __enter__(self):
        for owner, attr, wrapper in self.tracer._wrappers(self.cl):
            self.saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False
