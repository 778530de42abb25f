"""In-memory spans around every public lovedisp function.

Each function named in a module's ``__all__`` (or, for a module without
one, each public function it defines) is wrapped once, and every module
attribute bound to it is pointed at the wrapper, so a call through any
import path records the same span.  Classes are left alone: replacing them
would break ``isinstance`` and ``except`` clauses in the library.
"""

import functools
import importlib
import inspect
import pkgutil
import statistics
import time


class Tracer:
    """Records spans ``[name, start, end, parent, raised, n_out]`` while active."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, False, -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hasattr(out, "shape") and getattr(out, "ndim", 0) == 1:
                span[5] = len(out)
            return out

        return traced

    def install(self, package):
        """Wrap the package's public functions; returns the span names."""
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        span_names = []
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for n in names:
                fn = getattr(mod, n)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self.wrap(f"{short}.{n}", fn)
                    span_names.append(f"{short}.{n}")
        for mod in [package, *modules]:
            for n, v in list(vars(mod).items()):
                if inspect.isfunction(v) and v in wrappers:
                    setattr(mod, n, wrappers[v])
        return sorted(span_names)

    def per_function(self, names, factor):
        """Median ms per call, median self ms, call and raise counts per name.

        ``factor(start, end)`` scales a span's time to the reference speed.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        dur = {n: [] for n in names}
        own = {n: [] for n in names}
        raised = dict.fromkeys(names, 0)
        for i, (name, start, end, _, err, _) in enumerate(self.spans):
            f = 1e3 * factor(start, end)
            dur[name].append(f * (end - start))
            own[name].append(f * (end - start - child[i]))
            raised[name] += err
        out = {}
        for n in names:
            out[n] = (statistics.median(dur[n]) if dur[n] else 0.0, "ms")
            out[f"{n}.self"] = (statistics.median(own[n]) if own[n] else 0.0, "ms")
            out[f"{n}.calls"] = (len(dur[n]), "count")
            out[f"{n}.raised"] = (raised[n], "count")
        return out

    def under(self, name, ancestor):
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        found = []
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            if p >= 0:
                found.append(span)
        return found

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "raised": r, "n_out": k}
            for n, s, e, p, r, k in self.spans
        ]
