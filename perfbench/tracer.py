"""Layer spans for the traced benchmark run, installed from outside the package.

``Tracer.installed()`` rebinds every public function of the six unruh_pair
layers (params, xstate, entanglement, sweeps, oracle, cli) to a wrapper that
records one span per call, in every unruh_pair namespace that holds it, so
calls between modules and inside a module are both seen.  Nothing under
``src/`` changes and nothing is wrapped while the tracer is not installed.

Self time partitions wall time: at every instant the open spans that have no
open child share the interval equally (a sweep's worker threads run two
innermost spans at once), so the self times of all spans add up exactly to
the time covered by any span.  A span opened by a pool worker with nothing
open in its own thread is the child of the main thread's innermost span.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import itertools
import math
import os
import sys
import threading
import time

LAYERS = ("params", "xstate", "entanglement", "sweeps", "oracle", "cli")


def _count_emit_bytes(counters, args, kwargs):
    path = kwargs.get("path", args[3] if len(args) > 3 else None)
    if path not in (None, "-"):
        counters["cli.emit.bytes"] += os.path.getsize(path)


def _count_rk4_steps(counters, args, kwargs):
    # integrate() runs n steps at dt and 2n at dt/2, with n as computed there
    tau_max, dt = float(args[2]), float(args[3])
    if tau_max > 0.0:
        n = max(1, math.ceil(tau_max / dt - 1e-9))
        counters["oracle.integrate.rk4_steps"] += 3 * n


_AFTER_CALL = {"cli.emit": _count_emit_bytes, "oracle.integrate": _count_rk4_steps}


class Tracer:
    """Collects (span id, parent id, name, start, end) tuples and counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: collections.Counter = collections.Counter()
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}

    def _wrap(self, name, fn):
        spans, stacks, ids, counters = self.spans, self._stacks, self._ids, self.counters
        main = threading.main_thread().ident
        after = _AFTER_CALL.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stacks.setdefault(threading.get_ident(), [])
            parent = stack[-1] if stack else (stacks.get(main) or [None])[-1]
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(counters, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"unruh_pair.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        saved = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "unruh_pair" and not module_name.startswith("unruh_pair."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    saved.append((module, name, obj))
                    setattr(module, name, hit[1])
        try:
            yield self
        finally:
            for module, name, obj in reversed(saved):
                setattr(module, name, obj)


def self_times(spans) -> tuple[dict, dict]:
    """Per-name self time and call count from (id, parent, name, start, end) spans."""
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    calls = collections.Counter(s[2] for s in spans)
    events = sorted([(s[3], 1, s[0]) for s in spans] + [(s[4], 0, s[0]) for s in spans])
    open_children: collections.Counter = collections.Counter()
    is_open: set = set()
    leaves: set = set()
    own = collections.defaultdict(float)
    last = None
    for t, opening, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[name_of[leaf]] += share
        last = t
        parent = parent_of[sid]
        if opening:
            is_open.add(sid)
            leaves.add(sid)
            if parent in is_open:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return dict(own), dict(calls)


def covered_time(spans) -> float:
    """Length of the union of all span intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted((s[3], s[4]) for s in spans):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
