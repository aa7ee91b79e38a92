"""Span tracer that wraps functions from outside the program.

A span is (name, start, end, parent). Spans of ordinary calls are kept in
memory one by one. Calls of hot functions (hundreds of thousands per run)
are only folded into per-name totals. Either way every call adds its
duration to the child time of the span that encloses it, so the self time
of each name (span time minus child-span time) is exact for both kinds,
and the self times of all names add up to the duration of the root span.
"""

import time


class Tracer:
    def __init__(self):
        self.spans = []      # kept spans: (name, start, end, parent index or -1)
        self.totals = {}     # name -> [calls, total_s, self_s]
        self._stack = []     # open spans: [child_s, kept index of nearest kept span]

    def wrap(self, name, fn, hot=False, observe=None):
        """Return fn wrapped in a span named name.

        observe(args, kwargs, result) runs after the span has closed, so
        its cost is charged to the caller's self time, not to name.
        """
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if hot:
                index = parent
            else:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if not hot:
                    spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def calls(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[2]


def observed(fn, observe):
    """fn with observe(args, kwargs, result) called after each call; no span."""

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        observe(args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Attribute replacements that are undone, newest first, on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
