"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: every public function of
the cdmd modules is replaced, in every namespace that bound it, by a wrapper
that records a span around the call, and so are the ``numpy.linalg`` kernels
the library calls (reported under the layer name ``lapack``). Nothing inside
``src/cdmd`` changes; uninstalling puts the original objects back.

A span is ``(op, parent, name, start, end, flops)``: ``op`` is the traced op
it belongs to (``SETUP`` for input generation), ``parent`` the index of the
enclosing span or ``None``. Spans stay in memory until the run writes them
out.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from collections import defaultdict
from math import prod

import numpy as np

LAYERS = ("cli", "linalg", "dmd", "synth", "analysis", "experiments")
LAPACK_KERNELS = ("svd", "eig", "eigvals", "lstsq", "solve")
SETUP = -1


def svd_flops(a, full_matrices=True, compute_uv=True, hermitian=False):
    """Operation count of one ``numpy.linalg.svd`` call, computed, not measured.

    Golub & Van Loan's R-SVD counts for an m x n matrix with m >= n; a complex
    matrix counts four real operations per complex one. Takes the arguments
    of ``numpy.linalg.svd`` with its defaults.
    """
    a = np.asarray(a)
    *batch, m, n = a.shape
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        flops = 2 * m * n**2 + 2 * n**3
    elif full_matrices:
        flops = 4 * m**2 * n + 22 * n**3
    else:
        flops = 6 * m * n**2 + 20 * n**3
    return flops * (4 if np.iscomplexobj(a) else 1) * prod(batch)


FLOP_COUNTERS = {"lapack.svd": svd_flops}


class _Span:
    __slots__ = ("rec", "name", "flops", "sid", "start")

    def __init__(self, rec, name, flops=0):
        self.rec, self.name, self.flops = rec, name, flops

    def __enter__(self):
        rec = self.rec
        self.sid = len(rec.spans)
        rec.spans.append(None)
        rec.stack.append(self.sid)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        rec = self.rec
        rec.stack.pop()
        rec.spans[self.sid] = (rec.op, rec.stack[-1], self.name, self.start, end, self.flops)
        return False


class Recorder:
    """Records spans around calls into cdmd and numpy.linalg while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = [None]
        self.op = SETUP
        self._patches = self._patch_list()

    def span(self, name: str) -> _Span:
        """Context manager recording one span named ``name``."""
        return _Span(self, name)

    def _wrap(self, name, fn):
        count = FLOP_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name, count(*args, **kwargs) if count else 0):
                return fn(*args, **kwargs)

        return traced

    def _patch_list(self):
        cdmd = importlib.import_module("cdmd")
        modules = {layer: importlib.import_module(f"cdmd.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        # `from .linalg import pinv_rank` in dmd binds a second name to the
        # same function, so every namespace holding it gets the wrapper.
        patches = [
            (namespace, attr, obj, wrappers[obj])
            for namespace in (cdmd, *modules.values())
            for attr, obj in vars(namespace).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]
        for kernel in LAPACK_KERNELS:
            fn = getattr(np.linalg, kernel)
            patches.append((np.linalg, kernel, fn, self._wrap(f"lapack.{kernel}", fn)))
        return patches

    def install(self):
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self):
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def write(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["op", "parent", "name", "start", "end", "flops"])
            writer.writerows(self.spans)


def layer_table(spans):
    """Per-name calls, self time, wall time and flops, per op and for set-up.

    Self time is a span's duration minus the time its child spans cover.
    Returns ``{op: {name: [calls, self_s, wall_s, flops]}}``.
    """
    covered = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    table = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0]))
    for i, (op, _, name, start, end, flops) in enumerate(spans):
        row = table[op][name]
        row[0] += 1
        row[1] += end - start - covered[i]
        row[2] += end - start
        row[3] += flops
    return table


def per_op_layers(spans):
    """Layer figures for one op: set-up spans once plus the mean over traced ops.

    Also returns whether every traced op made exactly the same calls and
    computed flops, which holds when every op runs on the same inputs.
    """
    table = layer_table(spans)
    setup = table.pop(SETUP, {})
    ops = list(table.values())
    counts = [{name: (row[0], row[3]) for name, row in op.items()} for op in ops]
    repeat = all(c == counts[0] for c in counts)
    names = set(setup).union(*ops)
    result = {}
    for name in sorted(names):
        base = setup.get(name, [0, 0.0, 0.0, 0])
        rows = [op.get(name, [0, 0.0, 0.0, 0]) for op in ops]
        result[name] = {
            "calls": base[0] + rows[0][0] if rows else base[0],
            "self_s": base[1] + sum(r[1] for r in rows) / max(len(rows), 1),
            "wall_s": base[2] + sum(r[2] for r in rows) / max(len(rows), 1),
            "flops": base[3] + rows[0][3] if rows else base[3],
        }
    return result, repeat
