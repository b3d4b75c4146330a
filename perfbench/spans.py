"""Span tracing from outside the program, and the per-layer metrics it yields.

The tracer wraps the public functions of the measured layers and installs
the wrappers wherever the package's modules look those functions up (the
``commutant.algebra``, ``commutant.blocks`` and ``commutant.seminorms``
globals, the package namespace), so a nested call such as the
``relative_commutant`` inside ``twirl_expectation`` gets a parent span.  The
wrappers are installed only around traced executions; untraced code runs
the original functions.

A span is ``[name, start, end, parent, instance, attrs]``.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its child spans (calls are single-threaded, so children never
overlap).

``linalg`` is not measured: its calls are too many and too small to wrap
from outside, so its cost shows in the self time of its callers.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import numpy as np

from commutant.config import DEFAULT_CONFIG

TRACED = {
    "algebra": ("relative_commutant", "generate_algebra", "is_normal"),
    "blocks": ("wedderburn", "twirl_expectation"),
    "seminorms": ("derivation_seminorm", "dist_opnorm"),
}
LABELS = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

NAME, START, END, PARENT, INSTANCE, ATTRS = range(6)


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _opnorm(M) -> float:
    return float(np.linalg.norm(np.asarray(M), 2))


def _relative_commutant_attrs(args, kwargs, out) -> dict:
    S, ambient = _arg(args, kwargs, 0, "S"), _arg(args, kwargs, 1, "ambient")
    count = S.dim if hasattr(S, "dim") else len(S)
    n = ambient.ambient_dim
    # computed size of the stacked commutator system, not a measurement
    return {"system_bytes": count * n * n * ambient.dim * 16}


def _derivation_seminorm_attrs(args, kwargs, rep) -> dict:
    cfg = _arg(args, kwargs, 3, "cfg", DEFAULT_CONFIG)
    T = _arg(args, kwargs, 0, "T")
    return {
        "iterations": rep.iterations,
        "consensus": rep.details.get("restart_consensus", 0),
        "starts": cfg.opt_restarts + 2,
        "bracket_closed": rep.upper_bound - rep.value <= 1e-6 * max(1.0, _opnorm(T)),
    }


def _dist_opnorm_attrs(args, kwargs, rep) -> dict:
    T = _arg(args, kwargs, 0, "T")
    return {
        "iterations": rep.iterations,
        "gap_rel": (rep.upper_bound - rep.lower_bound) / max(1.0, _opnorm(T)),
        "uncertified": not rep.converged,
    }


_ANNOTATE = {
    "algebra.relative_commutant": _relative_commutant_attrs,
    "seminorms.derivation_seminorm": _derivation_seminorm_attrs,
    "seminorms.dist_opnorm": _dist_opnorm_attrs,
}


class Tracer:
    """Records spans of the measured layers while ``patched()`` is active."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._open = []
        self._patches = []
        for layer, fns in TRACED.items():
            module = sys.modules[f"commutant.{layer}"]
            for fn in fns:
                original = getattr(module, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for other in [m for k, m in sys.modules.items() if k.split(".")[0] == "commutant"]:
                    if getattr(other, fn, None) is original:
                        self._patches.append((other, fn, original, wrapper))

    def _wrap(self, label: str, fn):
        annotate = _ANNOTATE.get(label)
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([label, 0.0, 0.0, open_[-1] if open_ else None, self.instance, None])
            open_.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[idx][START], spans[idx][END] = start, end
            if annotate is not None:
                spans[idx][ATTRS] = annotate(args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def patched(self, instance: int):
        self.instance = instance
        for module, fn, _, wrapper in self._patches:
            setattr(module, fn, wrapper)
        try:
            yield
        finally:
            for module, fn, original, _ in self._patches:
                setattr(module, fn, original)
            self.instance = None


def self_times(spans) -> list:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def covered_time(spans) -> float:
    """Time covered by top-level spans, which never overlap one another."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] is None)


def layer_metrics(spans, instances: int) -> dict:
    """Per-layer metrics; additive ones are means per traced instance."""
    selfs = self_times(spans)
    by = {label: [] for label in LABELS}
    for s, st in zip(spans, selfs):
        by[s[NAME]].append((s, st))
    per = 1.0 / max(1, instances)
    out = {}
    for label in LABELS:
        rows = by[label]
        out[f"{label}.calls"] = len(rows) * per
        out[f"{label}.self_s"] = sum(st for _, st in rows) * per

    def attrs(label):
        return [s[ATTRS] for s, _ in by[label]]

    rc = attrs("algebra.relative_commutant")
    out["algebra.relative_commutant.system_mb"] = max(
        (a["system_bytes"] for a in rc), default=0
    ) / 1e6
    dn = attrs("seminorms.derivation_seminorm")
    out["seminorms.derivation_seminorm.iterations"] = sum(a["iterations"] for a in dn) * per
    starts = sum(a["starts"] for a in dn)
    out["seminorms.derivation_seminorm.consensus_ratio"] = (
        sum(a["consensus"] for a in dn) / starts if starts else 0.0
    )
    out["seminorms.derivation_seminorm.bracket_closed_fraction"] = (
        sum(a["bracket_closed"] for a in dn) / len(dn) if dn else 0.0
    )
    dist = attrs("seminorms.dist_opnorm")
    out["seminorms.dist_opnorm.iterations"] = sum(a["iterations"] for a in dist) * per
    out["seminorms.dist_opnorm.gap_max_rel"] = max((a["gap_rel"] for a in dist), default=0.0)
    out["seminorms.dist_opnorm.uncertified"] = (
        sum(a["uncertified"] for a in dist) / len(dist) if dist else 0.0
    )
    return out
