"""Span tracing of sudler from outside the package.

``Tracer.instrument`` wraps the functions of each sudler module and
replaces every module attribute bound to the original function, so a
caller finds the wrapper wherever it looks the name up: ``products``
calls ``_engine.log2sin_block`` through ``products.log2sin_block``,
``bounds`` calls ``products.log_abs_sin_product`` through
``bounds.log_abs_sin_product``, and ``verify`` calls everything through
module attributes such as ``pr.Q_n``.  No file of the package changes.

Each wrapped call records a span (id, name, parent id, start, end) in
memory; ``write`` stores them when the run ends.  A generator records one
span whose busy time is the sum of its resumptions, and each resumption
is charged to whichever span resumed it, so the self times of all spans
add up to the time spent inside the root spans.

Only the main thread is traced; calls made on pool threads run unwrapped.
"""

from __future__ import annotations

import gzip
import inspect
import threading
import time
from array import array
from pathlib import Path

_now = time.perf_counter_ns

# Functions that are not in their module's __all__ but are the layer
# boundaries the benchmark reports on.
_PRIVATE = {
    "sudler._engine": ("log2sin_block", "cot_block", "map_blocks", "merge_partials"),
    "sudler.products": ("_log_prefix_iter", "_log_perturbation_product"),
    "sudler.bounds": ("_split_log",),
    "sudler.cli": ("_emit_csv",),
}

LAYERS = ("_engine", "goldenangle", "fibcore", "products", "birkhoff", "bounds", "verify", "cli")


def metric_layer(module: str) -> str:
    """Metric names must start with a letter or digit: `_engine` -> `engine`."""
    return module.lstrip("_")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ix: dict[str, int] = {}
        self.calls: list[int] = []
        self.busy_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, float] = {}
        # span columns: id, name index, parent id, start, end, busy, self
        self._cols = tuple(array("q") for _ in range(7))
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = False

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        ix = self._ix.get(name)
        if ix is None:
            ix = self._ix[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.busy_ns.append(0)
            self.self_ns.append(0)
        return ix

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _active(self) -> bool:
        return self.enabled and threading.get_ident() == self._main

    def open(self, ix: int) -> list[int]:
        """Push a frame: [id, name, parent id, start, child_ns, busy_ns]."""
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, ix, parent, _now(), 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list[int]) -> None:
        end = _now()
        self._stack.pop()
        dur = end - frame[3]
        if self._stack:
            self._stack[-1][4] += dur
        frame[5] = dur
        self._record(frame, end)

    def _record(self, frame: list[int], end: int) -> None:
        sid, ix, parent, start, child, busy = frame
        self_ns = busy - child
        self.calls[ix] += 1
        self.busy_ns[ix] += busy
        self.self_ns[ix] += self_ns
        for col, v in zip(self._cols, (sid, ix, parent, start, end, busy, self_ns)):
            col.append(v)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """Trace calls of fn as ``name``.  ``hook`` is an optional pair
        (on_enter, on_exit): on_enter(args, kwargs) returns a state that
        on_exit(tracer, args, kwargs, result, exc, state) turns into
        counters."""
        ix = self.intern(name)
        on_enter, on_exit = hook or (None, None)

        def traced(*args, **kwargs):
            if not self._active():
                return fn(*args, **kwargs)
            state = on_enter(args, kwargs) if on_enter is not None else None
            frame = self.open(ix)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self.close(frame)
                if on_exit is not None:
                    on_exit(self, args, kwargs, result, exc, state)

        traced.__wrapped__ = fn
        return traced

    def wrap_gen(self, name: str, fn):
        ix = self.intern(name)
        rows_key = f"{name}.rows"

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)  # runs nothing until the first next()
            if not self._active():
                return gen
            return self._drive(ix, rows_key, gen)

        traced.__wrapped__ = fn
        return traced

    def _drive(self, ix: int, rows_key: str, gen):
        frame = None
        rows = 0
        try:
            while True:
                caller = self._stack[-1] if self._stack else None
                start = _now()
                if frame is None:
                    frame = [self._next_id, ix, caller[0] if caller else -1, start, 0, 0]
                    self._next_id += 1
                self._stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._stack.pop()
                    seg = _now() - start
                    frame[5] += seg
                    if caller is not None:
                        caller[4] += seg
                rows += 1
                yield item
        finally:
            gen.close()
            if frame is not None:
                self._record(frame, _now())
                self.count(rows_key, rows)

    # -- patching ----------------------------------------------------------

    def instrument(self, modules: dict, hooks: dict | None = None) -> None:
        """Wrap the public functions of ``modules`` (name -> module) plus the
        private layer boundaries; ``hooks`` maps a span name such as
        "engine.cot_block" to its counter hook (see ``wrap``)."""
        hooks = hooks or {}
        for modname, mod in modules.items():
            if modname == "sudler.verify":
                continue
            names = [n for n in getattr(mod, "__all__", ()) if inspect.isfunction(getattr(mod, n))]
            names += _PRIVATE.get(modname, ())
            for fname in names:
                fn = getattr(mod, fname)
                if getattr(fn, "__module__", None) != modname:
                    continue
                label = f"{metric_layer(modname.split('.')[-1])}.{fname}"
                if inspect.isgeneratorfunction(fn):
                    wrapper = self.wrap_gen(label, fn)
                elif label == "engine.map_blocks":
                    wrapper = self.wrap(label, self._trace_blocks(fn), hooks.get(label))
                else:
                    wrapper = self.wrap(label, fn, hooks.get(label))
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, attr, wrapper)
        vf = modules["sudler.verify"]
        self._patch(vf, "run_checks", self.wrap("verify.run_checks", vf.run_checks))
        checks = [(n, self.wrap(f"verify.{n}", fn)) for n, fn in vf._MODULE_CHECKS]
        self._patch(vf, "_MODULE_CHECKS", checks)

    def _trace_blocks(self, map_blocks):
        """map_blocks that also traces the block function it is given, so
        its self time is scheduling alone.  Block functions defined inside
        another function (the B_n perturbation block, the prefix-pass job)
        are named after the function that defines them."""

        def traced_map_blocks(fn, jobs, workers=1):
            if not hasattr(fn, "__wrapped__"):
                layer = metric_layer(fn.__module__.split(".")[-1])
                fn = self.wrap(f"{layer}.{fn.__qualname__.replace('.<locals>', '')}", fn)
            return map_blocks(fn, jobs, workers)

        return traced_map_blocks

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-name totals and counters so far (for per-pass differences)."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "busy_s": {n: b * 1e-9 for n, b in zip(self.names, self.busy_ns)},
            "self_s": {n: s * 1e-9 for n, s in zip(self.names, self.self_ns)},
            "counters": dict(self.counters),
            "spans": len(self._cols[0]),
        }

    def write(self, path: Path) -> int:
        """Write every span as gzip'd TSV; returns the number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        sid, ix, parent, start, end, busy, self_ns = self._cols
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tbusy_ns\tself_ns\n")
            for i in range(len(sid)):
                fh.write(
                    f"{sid[i]}\t{parent[i]}\t{self.names[ix[i]]}\t{start[i]}\t{end[i]}"
                    f"\t{busy[i]}\t{self_ns[i]}\n"
                )
        return len(sid)


def diff(after: dict, before: dict) -> dict:
    """after - before, name by name, for the snapshot() layout."""
    out = {}
    for key in ("calls", "busy_s", "self_s", "counters"):
        a, b = after[key], before[key]
        out[key] = {n: a[n] - b.get(n, 0) for n in a}
    out["spans"] = after["spans"] - before["spans"]
    return out

