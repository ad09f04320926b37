"""Spans around the program's layer entry points, recorded from outside it.

`Tracer.install` replaces each listed function or method of the `wogma`
package with a wrapper that records a span (name, start, end, parent) and
`Tracer.remove` puts the originals back. A call made from inside a span of
the same layer (OnlineBranch.stream calling online_step) opens no span of its
own: its time belongs to the caller. Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; span i is [name, start, end, parent, count]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, count=None):
        """`fn` recording a span called `name`; `count(args, result)` gives the
        span's amount of work, such as the videos a call handled."""
        layer = layer_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open and layer_of(self.spans[self._open[-1]][0]) == layer:
                return fn(*args, **kwargs)
            span = [name, self.clock(), None, self._open[-1] if self._open else None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[4] = count(args, result)
                return result
            finally:
                span[2] = self.clock()
                self._open.pop()

        return traced

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name, count) target.

        A module-level function is replaced in every loaded `wogma` module
        that binds it, so `from .x import f` call sites are traced too.
        """
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            traced = self.wrap(original, name, count)
            if isinstance(owner, type):
                self._patch(owner, attr, traced)
                continue
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "wogma":
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, binding, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, tuple[int, float, int]]:
        """Per span name: (calls, summed self time in s, summed count)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span[0]]
            entry[0] += 1
            entry[1] += own
            entry[2] += span[4] or 0
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path, **header) -> None:
        with open(path, "w") as handle:
            json.dump(dict(header, fields=["name", "start", "end", "parent", "count"],
                           spans=self.spans), handle)
