"""Span tracer that wraps hslog's public functions from outside the package.

``Tracer.install()`` replaces every module-level binding of a public hslog
function (in all eight modules, so ``J`` bound in ``functionals``,
``analysis`` and ``orlicz`` is one traced function) plus ``Grid.quad_weights``
with a wrapper that records a span: name, start, end, parent span and pass
id.  Spans stay in memory until ``write_spans`` at the end of the run.  A
span's self time is its duration minus the time its child spans cover.

Two private functions are wrapped as well, each only if the module still has
it: ``analysis._ascend``, because the per-seed ``MaximizeResult`` it returns,
whose ``iterations`` count accepted ascent steps, never leaves
``maximize_F``; and ``radial._build_weights``, which ``Grid.quad_weights``
calls on a cache miss, so its calls are the weight builds.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from collections import Counter
from time import perf_counter

MODULES = ("cli", "params", "radial", "functionals", "bliss", "analysis", "shooting", "orlicz")
PRIVATE = (("analysis", "_ascend"), ("radial", "_build_weights"))


class PassStats:
    """Aggregates of one traced pass: calls and self seconds per span name, and counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()


class Tracer:
    def __init__(self):
        self._modules = {name: importlib.import_module(f"hslog.{name}") for name in MODULES}
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[list] = []          # [span index, child seconds]
        self._active = Counter()              # span names currently open
        self.spans: list[tuple] = []          # (name, start, end, parent, pass_id)
        self.pass_id = -1
        self.stats = PassStats()
        self._hooks = {
            "functionals.J": (self._before_J, None),
            "analysis._ascend": (None, self._after_ascend),
            "shooting.shoot": (None, self._after_shoot),
        }

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for mod in self._modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("hslog."):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(obj)
                self._patch(mod, attr, wrapped[obj])
        for module, attr in PRIVATE:
            fn = getattr(self._modules[module], attr, None)
            if fn is not None:
                self._patch(self._modules[module], attr, self._wrap(fn))
        grid = self._modules["radial"].Grid
        self._patch(grid, "quad_weights", self._wrap(grid.quad_weights))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # --- hooks that turn results into counters ---------------------------------

    def _after_ascend(self, result):
        self.stats.counters["analysis.maximize_F.accepted_steps"] += result.iterations

    def _after_shoot(self, result):
        self.stats.counters["shooting.shoot.bisection_iterations"] += result.bisection_iterations
        self.stats.counters["shooting.shoot.ivp_evaluations"] += result.ivp_evaluations

    def _before_J(self, args, kwargs):
        if self._active["analysis.maximize_F"]:
            self.stats.counters["analysis.maximize_F.J_calls"] += 1

    # --- spans -------------------------------------------------------------------

    def _wrap(self, fn):
        name = f"{fn.__module__.removeprefix('hslog.')}.{fn.__qualname__}"
        before, after = self._hooks.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack, spans = tracer._stack, tracer.spans
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            tracer._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._active[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, tracer.pass_id)
                tracer.stats.calls[name] += 1
                tracer.stats.self_s[name] += duration - frame[1]
            if after is not None:
                after(result)
            return result

        return traced

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.stats = PassStats()

    def end_pass(self) -> PassStats:
        stats, self.stats = self.stats, PassStats()
        return stats

    def write_spans(self, path) -> None:
        """All spans of the run as CSV: index,name,start_s,end_s,parent,pass_id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,pass_id\n")
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{pass_id}\n")
