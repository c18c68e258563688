"""In-memory call tracing of named library functions, from outside the library.

`Tracer.install()` replaces every binding of each traced function in every
loaded module of the package (a function imported into another module's
namespace is a separate binding) with a timing wrapper; `uninstall()` puts
the originals back.  Methods are wrapped once, on their class.

Every call records its duration; its self time is the duration minus the
time its traced children cover.  Calls of the functions in `leaves`, which
run thousands of times per request, are only aggregated; every other call is
also kept as a span (id, parent span, request id, name, start, end) and
written out by `dump_spans`.  A function that no longer exists is listed in
`absent` instead of failing the run.  `Stat.flagged` counts the calls whose
return value has its `FLAG` attribute set (the library's `singular` flag on
kernel samples and LU factorizations).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field

_clock = time.perf_counter
FLAG = "singular"


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    flagged: int = 0


@dataclass
class _Frame:
    name: str
    start: float
    span_id: int  # -1 for an aggregated-only leaf call
    child: float = 0.0


@dataclass
class Tracer:
    package: str
    functions: list[str]  # "module.function" or "module.Class.method"
    leaves: frozenset[str] = frozenset()
    request_id: int = -1
    stats: dict[str, Stat] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    _next_span: int = 0

    def install(self) -> None:
        self.absent = []
        for qualname in self.functions:
            target = self._resolve(qualname)
            if target is None:
                self.absent.append(qualname)
                continue
            owner, attr, original = target
            wrapper = self._wrap(qualname, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == self.package
                                          or mod_name.startswith(self.package + ".")):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _resolve(self, qualname):
        """(owner, attribute, function) for a dotted name, or None if it is gone."""
        module_name, *path = qualname.split(".")
        owner = sys.modules.get(f"{self.package}.{module_name}")
        for part in path[:-1]:
            owner = vars(owner).get(part) if owner is not None else None
        if owner is None:
            return None
        original = vars(owner).get(path[-1])
        return (owner, path[-1], original) if callable(original) else None

    def _wrap(self, qualname, original):
        stat = self.stats.setdefault(qualname, Stat())
        stack = self._stack
        leaf = qualname in self.leaves

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = -1
            if not leaf:
                span_id = self._next_span
                self._next_span += 1
            frame = _Frame(qualname, _clock(), span_id)
            stack.append(frame)
            try:
                out = original(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame.start
                stat.calls += 1
                # a call nested in a call of the same function adds no wall time
                if all(f.name != qualname for f in stack):
                    stat.total += dur
                stat.self_time += dur - frame.child
                if stack:
                    stack[-1].child += dur
                if not leaf:
                    parent = next((f.span_id for f in reversed(stack) if f.span_id >= 0), -1)
                    self.spans.append((span_id, parent, self.request_id, qualname,
                                       frame.start, end))
            stat.flagged += bool(getattr(out, FLAG, False))
            return out

        return wrapper

    def dump_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"span": span_id, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")
