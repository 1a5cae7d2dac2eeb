"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the vertexset package from the
outside: each wrapper opens a span when the function is entered and closes
it when the function returns or raises.  A span stores its name, the op it
belongs to, the span that caused it (its parent on the call stack) and its
start and end time.  Per name the recorder keeps

* ``calls``: every entry of the function;
* ``s``: inclusive seconds, counted only for the outermost entry of a name,
  so a function that re-enters itself is not counted twice;
* ``self_s``: seconds inside the function minus the part its child spans
  cover.

Counter hooks add work counts (points evaluated, vertices found, errors
raised) at the same boundaries.  Spans are kept in flat arrays and written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class SpanRecorder:
    """Collects spans and per-name totals while ``enabled`` is true."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span index, name, start, covered child seconds]
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.incl_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._patched: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> None:
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(self._name_id(name))
        self.span_op.append(self.op)
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._depth[name] = self._depth.get(name, 0) + 1
        start = self.clock()
        self.span_start[idx] = start
        self._stack.append([idx, name, start, 0.0])

    def close(self) -> None:
        end = self.clock()
        idx, name, start, covered = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - covered
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][3] += dur

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``counter(rec, args, kwargs, result, exc)`` runs after the call
        (``exc`` is the exception raised, else None) and adds work counts.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            rec.open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                rec.close()
                if counter is not None:
                    counter(rec, args, kwargs, result, exc)

        return traced

    def patch_function(self, module: str, attr: str, name: str,
                       counter=None) -> None:
        """Wrap ``module.attr`` in its defining module and wherever the
        modules of the same package bound the same object under a name."""
        orig = getattr(sys.modules[module], attr)
        wrapped = self.wrap(name, orig, counter)
        package = module.split(".", 1)[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, counter=None) -> None:
        """Wrap ``cls.attr`` and every alias of it on the same class."""
        orig = vars(cls)[attr]
        wrapped = self.wrap(name, orig, counter)
        for key, val in list(vars(cls).items()):
            if val is orig:
                self._patched.append((cls, key, orig))
                setattr(cls, key, wrapped)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, key, orig = self._patched.pop()
            setattr(owner, key, orig)

    # -- output ------------------------------------------------------------

    def save(self, path, meta: dict) -> None:
        """Write every span, and the names they index, as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            meta=np.array([repr(sorted(meta.items()))], dtype=str),
        )
