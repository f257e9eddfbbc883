"""Spans and counters around jigsolve's public calls, recorded from outside.

The library is not edited. Instead :func:`trace_targets` lists wrappers
for module attributes (``jigsolve.experiments.solve``,
``jigsolve.assemble.core_guesses`` and so on) and :func:`patched` puts
them in place for the duration of a ``with`` block, so calls the library
makes to itself through those names are seen too. Each call
becomes a :class:`Span` with a name, start, end, parent and trial id.
Spans stay in memory; :meth:`Tracer.write` dumps them as JSON lines.

A span's *busy* time is the time spent inside it; for the window
generator that is the sum of the intervals spent producing windows, not
the time between its first and last window. A span's *self* time is its
busy time minus the part covered by spans opened inside it.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

_now = time.perf_counter


class Span:
    __slots__ = ("name", "trial", "parent", "start", "end", "busy", "covered")

    def __init__(self, name: str, trial: int, parent: int | None, start: float):
        self.name = name
        self.trial = trial
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0
        self.covered = 0.0

    @property
    def self_time(self) -> float:
        return self.busy - self.covered


class Tracer:
    """In-memory span recorder with per-trial counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.trial = -1
        self._stack: list[tuple[int, float]] = []  # (span index, resumed at)

    def begin(self, name: str) -> int:
        now = _now()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(name, self.trial, parent, now))
        ix = len(self.spans) - 1
        self._stack.append((ix, now))
        return ix

    def resume(self, ix: int) -> None:
        self._stack.append((ix, _now()))

    def pause(self) -> None:
        ix, since = self._stack.pop()
        now = _now()
        span = self.spans[ix]
        span.busy += now - since
        span.end = now
        if self._stack:
            self.spans[self._stack[-1][0]].covered += now - since

    def count(self, name: str, value: int = 1) -> None:
        self.counts[self.trial][name] += value

    def _count_error(self, exc: Exception, errors: tuple[tuple[type, str], ...]) -> None:
        for cls, counter in errors:
            if isinstance(exc, cls):
                self.count(counter)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.pause()

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable | None = None,
        errors: tuple[tuple[type, str], ...] = (),
    ) -> Callable:
        """``fn`` inside a span; ``observe(tracer, result)`` records counts."""

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(exc, errors)
                raise
            finally:
                self.pause()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def wrap_generator(
        self, name: str, fn: Callable, item_counter: str, errors: tuple[tuple[type, str], ...] = ()
    ) -> Callable:
        """A generator function whose span is busy only while producing items."""

        def traced(*args, **kwargs):
            ix = self.begin(name)
            try:
                inner = fn(*args, **kwargs)
            finally:
                self.pause()
            return self._stream(ix, inner, item_counter, errors)

        return traced

    def _stream(self, ix, inner, item_counter, errors):
        produced = 0
        try:
            while True:
                self.resume(ix)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except Exception as exc:
                    self._count_error(exc, errors)
                    raise
                finally:
                    self.pause()
                produced += 1
                yield item
        finally:
            self.count(item_counter, produced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                row = {
                    "name": span.name,
                    "trial": span.trial,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                    "busy": span.busy,
                    "self": span.self_time,
                }
                fh.write(json.dumps(row) + "\n")


def _observe_aggregate(tracer: Tracer, statuses) -> None:
    kinds = Counter(st.kind for st in statuses.values())
    tracer.count("windows.multi_pieces", kinds["multiple"])
    tracer.count("windows.none_pieces", kinds["none"])


def _observe_report(tracer: Tracer, report) -> None:
    tracer.count("typicality.typical", int(report.typical))


def _observe_components(tracer: Tracer, components) -> None:
    tracer.count("assemble.components", len(components))
    tracer.count("assemble.largest_component", components[0].size if components else 0)


def _observe_guesses(tracer: Tracer, guesses) -> None:
    tracer.count("assemble.guesses", len(guesses))


def _observe_solve(tracer: Tracer, outcome) -> None:
    tracer.count("assemble.guesses_tried", outcome.guesses_tried)
    tracer.count("assemble.solved", int(outcome.solved))


def _observe_brute(tracer: Tracer, windows) -> None:
    tracer.count("oracle.windows", len(windows))


@contextmanager
def patched(targets: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set ``module.attr = wrap(original)`` for each target; restore on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, wrap in targets:
            setattr(module, attr, wrap(getattr(module, attr)))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def trace_targets(lib, tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """Wrappers for every public call the benchmark measures.

    ``run_trial`` resolves its callees in ``jigsolve.experiments`` and
    ``solve`` in ``jigsolve.assemble``, so those are the attributes
    wrapped; the oracle workload calls ``jigsolve.gen``, ``jigsolve.grid``,
    ``jigsolve.windows`` and ``jigsolve.oracle`` directly.
    """
    budget = ((lib.windows.BudgetExceededError, "windows.budget_exceeded"),)
    stuck = ((lib.assemble.ShellStuck, "assemble.shells_stuck"),)
    w = tracer.wrap

    def enum(fn):
        return tracer.wrap_generator("windows.enumerate", fn, "windows.yielded", budget)

    return [
        (lib.experiments, "generate", lambda fn: w("gen.generate", fn)),
        (lib.experiments, "disassemble", lambda fn: w("grid.disassemble", fn)),
        (lib.experiments, "enumerate_windows", enum),
        (lib.experiments, "aggregate_candidates", lambda fn: w("windows.aggregate", fn, _observe_aggregate)),
        (lib.experiments, "report_from_candidates", lambda fn: w("typicality.report", fn, _observe_report)),
        (lib.experiments, "solve", lambda fn: w("assemble.solve", fn, _observe_solve)),
        (lib.assemble, "mutual_components", lambda fn: w("assemble.mutual_components", fn, _observe_components)),
        (lib.assemble, "core_guesses", lambda fn: w("assemble.core_guesses", fn, _observe_guesses)),
        (lib.assemble, "assemble_shells", lambda fn: w("assemble.assemble_shells", fn, None, stuck)),
        (lib.assemble, "is_feasible", lambda fn: w("grid.is_feasible", fn)),
        (lib.gen, "generate", lambda fn: w("gen.generate", fn)),
        (lib.grid, "disassemble", lambda fn: w("grid.disassemble", fn)),
        (lib.windows, "enumerate_windows", enum),
        (lib.oracle, "brute_force_windows", lambda fn: w("oracle.brute_force_windows", fn, _observe_brute)),
    ]
