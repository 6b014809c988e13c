"""Spans around the benchmark's calls, and kernel shims for the traced run.

A span is one record ``[id, parent, op, name, start, end, extra]``: the
benchmark opens one around every call it makes into matvar (``extra`` holds
the call's attributes), and while shims are installed every LAPACK or
optimiser call the library makes becomes a child span (``extra`` holds the
optimiser's ``nfev``).  Spans stay in memory until ``dump`` writes them.

Shims work because matvar looks these functions up as module attributes at
call time (``np.linalg.eigvalsh``, ``optimize.minimize``).  End-to-end runs
open spans only around the benchmark's own calls and install no shims.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

ID, PARENT, OP, NAME, START, END, EXTRA = range(7)

KERNELS = ("eigvalsh", "eigh", "svd", "eigvals")
OPTIMISERS = ("minimize", "minimize_scalar")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def _open(self, name: str, op, extra) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), None if parent is None else parent[ID],
               op if parent is None else parent[OP], name, 0.0, 0.0, extra]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: str | None = None, **attrs):
        rec = self._open(name, op, attrs)
        try:
            yield rec
        finally:
            self._close(rec)

    def _shim(self, name: str, fn):
        def shim(*args, **kwargs):
            if not self._stack:  # a call the benchmark makes for its own checks
                return fn(*args, **kwargs)
            rec = self._open(name, None, None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            nfev = getattr(out, "nfev", None)
            if nfev is not None:
                rec[EXTRA] = int(nfev)
            return out
        return shim

    def install_shims(self) -> None:
        import numpy.linalg
        import scipy.linalg
        import scipy.optimize
        targets = [(numpy.linalg, "numpy.linalg", KERNELS),
                   (scipy.linalg, "scipy.linalg", KERNELS),
                   (scipy.optimize, "scipy.optimize", OPTIMISERS)]
        for module, prefix, names in targets:
            for attr in names:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._shim(f"{prefix}.{attr}", fn))

    def remove_shims(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self, path: Path) -> None:
        """Write one JSON span per line."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def duration(rec: list) -> float:
    return rec[END] - rec[START]


class SpanIndex:
    """Children lists and subtree queries over a finished span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[list]] = {}
        for rec in spans:
            if rec[PARENT] is not None:
                self.children.setdefault(rec[PARENT], []).append(rec)

    def named(self, name: str) -> list[list]:
        return [rec for rec in self.spans if rec[NAME] == name]

    def descendants(self, rec: list):
        stack = list(self.children.get(rec[ID], ()))
        while stack:
            child = stack.pop()
            yield child
            stack.extend(self.children.get(child[ID], ()))

    def self_time(self, rec: list) -> float:
        """Span duration minus the time its direct children cover."""
        return duration(rec) - sum(duration(c) for c in self.children.get(rec[ID], ()))

    def kernel_time(self, rec: list) -> float:
        """Time inside LAPACK kernel spans anywhere below ``rec``."""
        return sum(duration(c) for c in self.descendants(rec)
                   if c[NAME].rsplit(".", 1)[-1] in KERNELS)

    def count(self, rec: list, leaves) -> int:
        """Calls below ``rec`` to any function whose last name is in ``leaves``."""
        return sum(1 for c in self.descendants(rec) if c[NAME].rsplit(".", 1)[-1] in leaves)

    def nfev(self, rec: list) -> int:
        return sum(c[EXTRA] or 0 for c in self.descendants(rec)
                   if c[NAME].rsplit(".", 1)[-1] in OPTIMISERS)
