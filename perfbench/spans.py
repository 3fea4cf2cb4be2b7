"""In-memory spans, and wrappers installed from outside the program.

A wrapper is rebound in every module that holds the original function: as a
module global (``from .x import f`` copies the name), as a value of a
module-level dict (the experiment registry), or as a class attribute.  The
install returns the bindings it replaced so that ``restore`` can put every
original back.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

MARK = "__perfbench_span__"


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the enclosing span, -1 for a root
    end: float = 0.0
    child_s: float = 0.0  # summed durations of the direct children
    stats: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def exit(self, idx: int) -> None:
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")
        span = self.spans[idx]
        span.end = self.clock()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def nesting_errors(self, tol: float = 1e-9) -> list[str]:
        """Spans that are still open, lie outside their parent, or have
        negative self time."""
        errors = [f"span {self.spans[i].name} never closed" for i in self._open]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    errors.append(f"span {i} ({s.name}) outside its parent {p.name}")
            if s.self_s < -tol:
                errors.append(f"span {i} ({s.name}) has self time {s.self_s}")
        return errors


def make_wrapper(fn: Callable, name: str, tracer: Tracer,
                 meter: Optional[Callable] = None) -> Callable:
    """fn inside a span called name; meter(args, kwargs, result) -> stats."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if meter is not None:
            tracer.spans[idx].stats = meter(args, kwargs, result)
        return result

    setattr(wrapper, MARK, name)
    return wrapper


# A replaced binding: (container, key, original).  The container is a module
# dict, a registry dict or a class.
Binding = tuple[object, str, Callable]


def install(wrappers: dict[int, tuple[Callable, Callable]],
            modules: Iterable, classes: Iterable = ()) -> list[Binding]:
    """Rebind every reference to an original function.

    wrappers maps id(original) to (original, wrapper).  Module globals and
    values of module-level dicts are scanned in each module; each class's
    own attributes are scanned too.
    """
    replaced: list[Binding] = []

    def swap(container: dict, key):
        value = container[key]
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            container[key] = hit[1]
            replaced.append((container, key, value))

    for module in modules:
        ns = vars(module)
        for key in list(ns):
            value = ns[key]
            if isinstance(value, dict):
                for k in list(value):
                    swap(value, k)
            else:
                swap(ns, key)
    for cls in classes:
        for key, value in list(vars(cls).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(cls, key, hit[1])
                replaced.append((cls, key, value))
    return replaced


def restore(replaced: list[Binding]) -> None:
    for container, key, original in reversed(replaced):
        if isinstance(container, dict):
            container[key] = original
        else:
            setattr(container, key, original)


def find_wrapped(modules: Iterable, classes: Iterable = ()) -> list[str]:
    """Names still bound to a benchmark wrapper (empty when untraced)."""
    found = []
    for module in modules:
        for key, value in vars(module).items():
            values = value.values() if isinstance(value, dict) else (value,)
            found += [f"{module.__name__}.{key}" for v in values if hasattr(v, MARK)]
    for cls in classes:
        found += [f"{cls.__name__}.{k}" for k, v in vars(cls).items()
                  if hasattr(v, MARK)]
    return found
