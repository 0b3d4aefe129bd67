"""Benchmark-side span tracer for the public functions of ``liepoisson``.

The tracer replaces each target function, in every loaded ``liepoisson``
module that binds it (found by object identity, so ``classify.apply`` and
``transform.apply`` are both covered), with a wrapper that records a span:
name, start, end, parent span and the item being worked on.  Spans stay in
memory until :meth:`Tracer.write`; :meth:`Tracer.uninstall` puts every
original function back.  It runs in the main thread only, and its clock is
that thread's CPU time, the clock the harness times items with.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from time import thread_time
from typing import Callable, Dict, Iterable, List, Optional

NAME, START, END, PARENT, ITEM, ASIDE = range(6)


def _package_modules():
    """Every module of the package, imported now so that no module loaded
    later binds a wrapper that uninstall would not see."""
    package = importlib.import_module("liepoisson")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"liepoisson.{info.name}")
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "liepoisson" or name.startswith("liepoisson."))]


class Tracer:
    def __init__(self, targets: Iterable[str], observe: Optional[Dict[str, Callable]] = None):
        """``targets`` are ``"<module>.<function>"`` names relative to the package.

        ``observe`` maps some of them to a function of their result returning
        a number; :attr:`observed` keeps the largest value seen per target.
        An observation runs after its span has ended, and its time is
        charged to neither the span nor its parent.
        """
        self.targets = list(targets)
        self.observe = dict(observe or {})
        self.observed: Dict[str, float] = {name: 0 for name in self.observe}
        self.spans: List[list] = []
        self.item: Optional[int] = None
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> "Tracer":
        modules = _package_modules()
        for target in self.targets:
            mod_name, func_name = target.rsplit(".", 1)
            original = getattr(sys.modules[f"liepoisson.{mod_name}"], func_name)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self.observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, thread_time(), 0.0, stack[-1] if stack else -1, self.item, 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = thread_time()
                stack.pop()
            if observe is not None:
                self.observed[name] = max(self.observed[name], observe(result))
                span[ASIDE] = thread_time() - end
            return result

        return traced

    def settle(self) -> None:
        """Close spans left open when a time limit interrupted a wrapper's exit."""
        now = thread_time()
        for idx in self._stack:
            if not self.spans[idx][END]:
                self.spans[idx][END] = now
        self._stack.clear()

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per target: number of calls and self time in ms.

        Self time is a span's duration minus the durations of its direct
        children (and of their observations); spans nest strictly in one
        thread, so the children cover disjoint parts of the parent's interval.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START] + span[ASIDE]
        out = {name: {"calls": 0, "self_ms": 0.0} for name in self.targets}
        for idx, span in enumerate(self.spans):
            row = out[span[NAME]]
            row["calls"] += 1
            row["self_ms"] += (span[END] - span[START] - child[idx]) * 1e3
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item", "aside"], "spans": self.spans},
                      fh, separators=(",", ":"))
