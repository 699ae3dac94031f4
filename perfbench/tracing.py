"""Outside-in tracing of sketchsolve's layers.

The benchmark does not edit the library: for a traced pass it replaces the
module attributes each layer is reached through with timing wrappers, and
puts the originals back afterwards. Every call through a wrapper becomes one
span (name, parent span, cell, start, end, skipped flag). Spans live in flat
arrays in memory and are written once, at the end of the run.

Layer boundaries wrapped (module attribute -> span name):

- ``solver.solve`` -> ``solve``; ``theory.fit_empirical_rate`` -> ``fit``
- ``solver.draw_sketch``, ``sketch.draw_sketch`` -> ``draw``
- ``schemes.step`` -> ``step`` (``SkipStep`` marks the span skipped)
- ``schemes.pseudoinverse`` -> ``pinv`` (nested in ``step``)
- ``solver.check_compatible``, ``schemes.sampling_weights`` -> ``setup``
- ``problems.generate`` -> ``generate``

Work a later change stops routing through a wrapped function shows up as
self time of the enclosing span, and the call counts show the move.
"""

from __future__ import annotations

import time
from array import array

import numpy as np
from sketchsolve import problems, schemes, sketch, solver, theory

NAMES = ("solve", "fit", "draw", "step", "pinv", "setup", "generate")
SOLVE, FIT, DRAW, STEP, PINV, SETUP, GENERATE = range(len(NAMES))

WRAPPED = (
    (solver, "solve", SOLVE),
    (theory, "fit_empirical_rate", FIT),
    (solver, "draw_sketch", DRAW),
    (sketch, "draw_sketch", DRAW),
    (schemes, "step", STEP),
    (schemes, "pseudoinverse", PINV),
    (solver, "check_compatible", SETUP),
    (schemes, "sampling_weights", SETUP),
    (problems, "generate", GENERATE),
)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self._saved = []
        self._stack = [-1]
        self.cell = -1          # cell index stamped on new spans
        self.parent = array("q")
        self.name = array("b")
        self.cells = array("h")
        self.t0 = array("d")
        self.t1 = array("d")
        self.skipped = array("b")

    def __len__(self):
        return len(self.t0)

    def _wrap(self, fn, code: int):
        perf = time.perf_counter
        stack, parent, name, cells = self._stack, self.parent, self.name, self.cells
        t0, t1, skipped = self.t0, self.t1, self.skipped
        tracer = self

        def wrapped(*args, **kwargs):
            sid = len(t0)
            parent.append(stack[-1])
            name.append(code)
            cells.append(tracer.cell)
            skipped.append(0)
            t0.append(0.0)
            t1.append(0.0)
            stack.append(sid)
            start = perf()
            try:
                return fn(*args, **kwargs)
            except schemes.SkipStep:
                skipped[sid] = 1
                raise
            finally:
                end = perf()
                stack.pop()
                t0[sid] = start
                t1[sid] = end

        return wrapped

    def __enter__(self):
        for module, attr, code in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, code))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def arrays(self, start: int = 0, stop: int | None = None) -> dict:
        """Copies of spans ``start:stop`` as numpy arrays (durations in
        seconds); copies, so the store can keep growing afterwards."""
        sl = slice(start, stop)
        t0 = np.array(self.t0[sl], dtype=float)
        return {
            "id": np.arange(len(self))[sl],
            "parent": np.array(self.parent[sl], dtype=np.int64),
            "name": np.array(self.name[sl], dtype=np.int8),
            "cell": np.array(self.cells[sl], dtype=np.int16),
            "skipped": np.array(self.skipped[sl], dtype=np.int8),
            "t0": t0,
            "dur": np.array(self.t1[sl], dtype=float) - t0,
        }

    def save(self, path):
        """Write every span once, as a compressed ``.npz``."""
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(NAMES), **spans)


def self_times(spans: dict, code: int) -> np.ndarray:
    """Duration of each ``code`` span minus the durations of its direct
    children, aligned with ``spans["id"][spans["name"] == code]``."""
    ids = spans["id"]
    own = spans["name"] == code
    child_sum = np.zeros(len(ids))
    kids = np.isin(spans["parent"], ids[own])
    # parents precede children, so a parent id maps to its offset in the window
    np.add.at(child_sum, spans["parent"][kids] - ids[0], spans["dur"][kids])
    return spans["dur"][own] - child_sum[own]
