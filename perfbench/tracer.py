"""Span tracer that wraps binq's public functions from outside the package.

Every public module-level function defined in a binq submodule is replaced
by a wrapper at every binding site, so `binq.partitioner.partition`,
`binq.saliency_optimizer.partition` and `binq.partition` all record the
same span. Spans (name, start, end, parent, optional attributes, optional
allocation peak) are kept in memory and handed back at the end; self time
is computed from them by the caller. Wrappers record only while the tracer
is active, so the benchmark's own checks stay out of the spans. A function
that no longer exists is simply never recorded.
"""

import functools
import inspect
import sys
import time
import tracemalloc


class Tracer:
    def __init__(self, package: str = "binq", attrs=None):
        self.package = package
        self.attrs = attrs or {}
        self.spans: list[dict] = []
        self.active = False
        self._stack: list[dict] = []

    def install(self):
        """Wrap the public functions of every loaded submodule of the package."""
        prefix = self.package + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package or name.startswith(prefix))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(prefix):]
            if not short:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap(self, func, name):
        extract = self.attrs.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            span = self._enter(name)
            if extract is not None:
                try:
                    span["attrs"] = extract(*args, **kwargs)
                except (TypeError, AttributeError, IndexError):
                    pass
            try:
                return func(*args, **kwargs)
            finally:
                self._exit(span)

        return traced

    def _enter(self, name) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"name": name, "parent": parent["id"] if parent else None,
                "id": len(self.spans)}
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            span["_base"] = span["_peak"] = current
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()
        if "_base" in span:
            # Peaks are absolute traced bytes; a parent keeps the highest
            # peak of any child, since each span resets the running peak.
            peak = max(span.pop("_peak"), tracemalloc.get_traced_memory()[1])
            span["peak_alloc_mb"] = (peak - span.pop("_base")) / 2**20
            if self._stack and "_peak" in self._stack[-1]:
                self._stack[-1]["_peak"] = max(self._stack[-1]["_peak"], peak)
            tracemalloc.reset_peak()
