"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: the tracer replaces the module
attribute that each caller actually looks up with a timing wrapper, for as
long as the ``installed()`` context is open.  ``certify.py`` binds
``sample``, ``make_box``, ``box_mass``, ``disjointify``, ``propagate``,
``contains`` and ``excludes`` with ``from ... import``, so those are wrapped
on ``bnncert.certify``; wrapping ``bnncert.posterior.box_mass`` would see no
calls at all.  ``search.py`` binds ``psafe_lower``/``psafe_upper`` the same
way, and ``attack.pgd`` looks up ``forward``/``backprop`` on
``bnncert.attack``.

Each span keeps a name, start, end and the index of the span that was open
when it started.  A span's self time is its duration minus the durations of
its direct children; the program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _count_disjointify(counts, args, out):
    counts["posterior.disjointify.in"] += len(args[0])
    counts["posterior.disjointify.out"] += len(out)


def _count_true(key):
    def observe(counts, args, out):
        counts[key] += bool(out)
    return observe


# (module, attribute, name, records a span, extra counter, observer).
# A target without a span only counts calls: forward/backprop run about 150
# times per PGD call and relax_activation once per hidden neuron, so a span
# there would mostly time the tracer.
TARGETS = (
    ("bnncert.trainer", "fit_vi", "trainer.fit_vi", True, None, None),
    ("bnncert.trainer", "sample_hmc", "trainer.sample_hmc", True, None, None),
    ("bnncert.cli", "main", "cli.sweep", True, None, None),
    ("bnncert.io", "load_posterior", "io.load_posterior", True, None, None),
    ("bnncert.search", "max_robust_radius", "search.max_robust_radius",
     True, None, None),
    ("bnncert.search", "min_unrobust_radius", "search.min_unrobust_radius",
     True, None, None),
    ("bnncert.search", "psafe_lower", "certify.psafe_lower", True,
     "search.certificates", None),
    ("bnncert.search", "psafe_upper", "certify.psafe_upper", True,
     "search.certificates", None),
    ("bnncert.certify", "psafe_lower", "certify.psafe_lower", True, None, None),
    ("bnncert.certify", "psafe_upper", "certify.psafe_upper", True, None, None),
    ("bnncert.certify", "sample", "posterior.sample", True, None, None),
    ("bnncert.certify", "make_box", "posterior.make_box", True, None, None),
    ("bnncert.certify", "box_mass", "posterior.box_mass", True, None, None),
    ("bnncert.certify", "disjointify", "posterior.disjointify", True, None,
     _count_disjointify),
    ("bnncert.certify", "propagate", "propagate", True, None, None),
    ("bnncert.propagate", "ibp_layer_intervals",
     "propagate.ibp_layer_intervals", True, None, None),
    ("bnncert.propagate", "relax_activation", "propagate.relax_activation",
     False, None, None),
    ("bnncert.certify", "contains", "spec.contains", True, None,
     _count_true("spec.contains.true")),
    ("bnncert.certify", "excludes", "spec.excludes", True, None,
     _count_true("spec.excludes.true")),
    ("bnncert.attack", "pgd", "attack.pgd", True, None, None),
    ("bnncert.attack", "forward", "attack.forward", False, None, None),
    ("bnncert.attack", "backprop", "attack.backprop", False, None, None),
)


class Tracer:
    """Spans and call counters, kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def _wrap(self, fn, name, with_span, extra, observe):
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[calls] += 1
            if extra:
                counts[extra] += 1
            if with_span:
                i = self.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(i)
            else:
                out = fn(*args, **kwargs)
            if observe:
                observe(counts, args, out)
            return out

        return wrapped

    @contextmanager
    def installed(self):
        """Replace every target attribute with its wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, with_span, extra, observe in TARGETS:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, with_span, extra, observe))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (spans, total duration, total self time)."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.array(self.start, dtype=float)
        dur = np.array(self.end, dtype=float) - start
        parent = np.array(self.parent, dtype=np.int32)
        nid = np.array(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        k = len(self.names)
        spans = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        return {name: (int(spans[j]), float(total[j]), float(own[j]))
                for j, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span, columnar, as an ``.npz`` file."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start, dtype=float),
                 end=np.array(self.end, dtype=float))
