"""Spans around the package's public functions, recorded from outside it.

The package binds names with `from .module import name`, so a function is
looked up in the namespace of each module that calls it. `Tracer.install`
replaces every binding of a traced function object in every loaded
`softaug` module, so each call is recorded wherever it is looked up, and
`Tracer.uninstall` restores the originals. Spans are kept in memory: one
list per root (a set-up or one operation), summed into `Totals` when the
root ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# span record: [name, start, end, parent index or -1, note]
NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self, traced):
        """`traced`: (span name, softaug module, attribute, note) tuples.
        `note(args, kwargs, result)`, if given, returns a value kept with
        the span. `install` raises AttributeError for a function the
        package no longer defines, so a renamed layer cannot read as 0."""
        self._traced = traced
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self):
        package = [m for n, m in list(sys.modules.items()) if n == "softaug" or n.startswith("softaug.")]
        for name, module, attr, note in self._traced:
            target = getattr(importlib.import_module(f"softaug.{module}"), attr)
            wrapper = self._wrap(target, name, note)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, value in reversed(self._saved):
            setattr(mod, key, value)
        self._saved.clear()

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def root(self, name: str):
        """Record the spans of one set-up or operation into a fresh list,
        yielded to the caller; spans recorded outside a root are dropped."""
        spans = [[name, perf_counter(), 0.0, -1, None]]
        self.spans, self._stack = spans, [0]
        try:
            yield spans
        finally:
            spans[0][END] = perf_counter()
            self.spans, self._stack = [], []


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered = 0.0
        cur_start = cur_end = None
        for s, e in sorted((max(spans[k][START], start), min(spans[k][END], end)) for k in kids):
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


class Totals:
    """Per span name sums over the roots of one kind ("setup" or "op")."""

    def __init__(self, keep_durations=()):
        self.roots = 0
        self.root_time = 0.0
        self.calls: Counter = Counter()
        self.time: Counter = Counter()
        self.self_time: Counter = Counter()
        self.parent_calls: Counter = Counter()  # (parent name, name) -> calls
        self.notes: defaultdict = defaultdict(list)  # name -> per root, [(note, seconds)]
        self.durations: defaultdict = defaultdict(list)
        self._keep = set(keep_durations)
        self.first = None  # the first root's spans, kept to be written out

    def add(self, spans):
        if self.first is None:
            self.first = spans
        self.roots += 1
        self.root_time += spans[0][END] - spans[0][START]
        root_notes = defaultdict(list)
        for span, own in zip(spans[1:], self_times(spans)[1:]):
            name = span[NAME]
            self.calls[name] += 1
            self.time[name] += span[END] - span[START]
            self.self_time[name] += own
            self.parent_calls[(spans[span[PARENT]][NAME], name)] += 1
            if span[NOTE] is not None:
                root_notes[name].append((span[NOTE], span[END] - span[START]))
            if name in self._keep:
                self.durations[name].append(span[END] - span[START])
        for name, notes in root_notes.items():
            self.notes[name].append(notes)

    def self_by_module(self) -> Counter:
        out: Counter = Counter()
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out
