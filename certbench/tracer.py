"""Spans around the public functions of coarselab's layers.

`Tracer.install()` wraps every public module-level function of the nine
layer modules and every public method of `Space` and `Entourage`, and
rebinds each wrapper in every `coarselab` module namespace that holds the
original (modules import functions by name, e.g. `transforms` and
`witnesses` both import `appetite_witness`). `uninstall()` restores the
originals, so traced and untraced passes can alternate in one process.

A span records (name, start, end, parent, item, error, count). Spans are
kept in flat arrays in memory and written out once at the end. Counts come
only from call arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import weakref
from array import array

import numpy as np

LAYERS = ("spaces", "covers", "transforms", "witnesses", "hyperbolic", "support",
          "corona", "jsonio", "cli")
TRACED_CLASSES = ("Space", "Entourage")


def _distinct_row(tracer, args, kwargs, ret):
    space, i = args[0], int(args[1])
    seen = tracer.rows_seen.setdefault(space, set())
    if i in seen:
        return 0
    seen.add(i)
    return 1


def _block_entries(tracer, args, kwargs, ret):
    return int(np.size(args[1])) * int(np.size(args[2]))


def _materialized_pairs(tracer, args, kwargs, ret):
    # a pairs entourage materializes to itself: nothing is computed
    return int(ret._keys.size) if args[0].kind == "radius" else 0


def _pairs_out(tracer, args, kwargs, ret):
    return int(ret._keys.size)


def _file_bytes(tracer, args, kwargs, ret):
    return os.stat(args[0]).st_size

COUNTERS = {
    "spaces.Space.dist_row": _distinct_row,
    "spaces.Space.dist_block": _block_entries,
    "spaces.Entourage.materialize": _materialized_pairs,
    "spaces.Entourage.compose": _pairs_out,
    "covers.cover_entourage": _pairs_out,
    "jsonio.read_json": _file_bytes,
    "jsonio.write_json": _file_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.error = array("b")
        self.count = array("q")
        self.item_id = -1
        self.rows_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        counter = COUNTERS.get(span_name)
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.item.append(tr.item_id)
            tr.error.append(0)
            tr.count.append(0)
            tr.end.append(0.0)
            tr._stack.append(idx)
            tr.start.append(clock())
            try:
                ret = fn(*args, **kwargs)
            except BaseException:
                tr.end[idx] = clock()
                tr.error[idx] = 1
                tr._stack.pop()
                raise
            tr.end[idx] = clock()
            tr._stack.pop()
            if counter is not None:
                tr.count[idx] = counter(tr, args, kwargs, ret)
            return ret

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"coarselab.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mname, mod in list(sys.modules.items()):
            if mname != "coarselab" and not mname.startswith("coarselab."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._undo.append((mod, name, obj))
        spaces = importlib.import_module("coarselab.spaces")
        for cname in TRACED_CLASSES:
            cls = getattr(spaces, cname)
            for name, raw in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                span = f"spaces.{cname}.{name}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span, raw.__func__))
                elif isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(span, raw.__func__))
                elif inspect.isfunction(raw):
                    new = self._wrap(span, raw)
                else:
                    continue
                setattr(cls, name, new)
                self._undo.append((cls, name, raw))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    # -- analysis --------------------------------------------------------------

    def columns(self) -> dict:
        """The spans as numpy columns, with self time (duration minus the
        durations of direct children; calls nest on one thread)."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "name": np.array(self.name_id, dtype=np.int64),
            "start": start, "end": end, "parent": parent,
            "item": np.array(self.item, dtype=np.int64),
            "error": np.array(self.error, dtype=np.int8),
            "count": np.array(self.count, dtype=np.int64),
            "self": dur - child,
        }

    def save(self, path: str) -> None:
        cols = self.columns()
        np.savez(path, names=np.array(self.names), **cols)
