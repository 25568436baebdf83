"""In-memory tracing of the pikfnn layers, installed from outside the package.

A Tracer replaces functions of the loaded ``pikfnn`` modules by wrappers and
puts the originals back on ``restore``.  Every module attribute bound to the
same function object is replaced, so ``runner.assemble`` and
``network.assemble`` (which ``forward`` looks up) are both seen.

Timed wrappers record a span ``[name, start, end, parent]``; the parent is
the index of the span open when the call began, which gives self time.
Per-entry functions (Bessel, scalar kernel evaluations) get count-only
wrappers: reading the clock twice per call would inflate their cost.
"""

import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, on_return=None):
        """Wrapper recording one span per call; on_return(result) may add
        counts from the result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, original, wrapper, modules=None):
        """Bind wrapper wherever a loaded pikfnn module binds original.

        modules, when given, limits the replacement to those module names.
        """
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "pikfnn" or mod_name.startswith("pikfnn.")):
                continue
            if modules is not None and mod_name not in modules:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- span arithmetic --------------------------------------------------

    def _ancestors(self, index):
        parent = self.spans[index][3]
        while parent is not None:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def inclusive_s(self, names, outside=()):
        """Summed duration of spans named in names, skipping those nested in
        another span of names (no double counting) or in a span of outside."""
        names, skip = set(names), set(names) | set(outside)
        total = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            if name in names and not skip.intersection(self._ancestors(i)):
                total += end - start
        return total

    def self_s(self, names):
        """Duration of spans named in names minus time covered by their
        direct children."""
        names = set(names)
        child_time = Counter()
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return sum(end - start - child_time[i]
                   for i, (name, start, end, _) in enumerate(self.spans)
                   if name in names)

    def calls(self, names):
        names = set(names)
        return sum(1 for span in self.spans if span[0] in names)
