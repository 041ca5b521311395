"""Outside-in span tracer for the fem_surrogate modules.

The tracer replaces each public function of the package's modules with a
wrapper at every name a caller looks it up by: the module attribute where it
is defined, the alias another module imported with ``from .x import y``
(``beam.solve_refined``, ``beam._det_sign``, ``surrogate.plot_curves``), and
the class attribute for methods (``ExperimentReport.write_metrics``).
Nothing in the package itself changes; ``uninstall`` puts every original
back.

A span is named ``<defining module>.<function>`` and records its parent, so
self time is its duration minus the durations of its direct children.
Spans stay in memory until the run ends.  Some spans carry an observer that
derives a count from the call's arguments or result (matrix sizes, sweep
residuals); observers run after the span has closed and their time is
subtracted from every enclosing span, so they neither slow nor pad the
layer times.
"""

import functools
import inspect
import time
from collections import defaultdict

_CLOCK = time.perf_counter


class Tracer:
    def __init__(self, modules, observers=None):
        self.modules = list(modules)
        self.observers = dict(observers or {})
        self.spans = []          # (name, parent index or -1, duration_s, failed)
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self.probe_s = 0.0       # time spent in observers, excluded everywhere

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = self.modules[0].__name__.rsplit(".", 1)[0] + "."
        wrapped = {}             # id(original function) -> wrapper
        names = {}               # span name -> original, to catch collisions

        def wrapper_for(fn, name):
            if names.setdefault(name, fn) is not fn:
                raise RuntimeError(f"two functions map to span name {name}")
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, name)
            return wrapped[id(fn)]

        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith(package) \
                        and not obj.__name__.startswith("_"):
                    span = obj.__module__.rsplit(".", 1)[1] + "." + obj.__name__
                    self._patch(mod, attr, wrapper_for(obj, span))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    short = mod.__name__.rsplit(".", 1)[1]
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        span = f"{short}.{mname}"
                        if inspect.isfunction(member):
                            self._patch(obj, mname, wrapper_for(member, span))
                        elif isinstance(member, (classmethod, staticmethod)):
                            kind = type(member)
                            self._patch(obj, mname,
                                        kind(wrapper_for(member.__func__, span)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            probe0 = tracer.probe_s
            start = _CLOCK()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                duration = _CLOCK() - start - (tracer.probe_s - probe0)
                stack.pop()
                spans[idx] = (name, parent, duration, failed)
            if observe is not None:
                t0 = _CLOCK()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result)
                tracer.probe_s += _CLOCK() - t0
            return result

        return traced

    # --- aggregation ------------------------------------------------------

    def table(self) -> dict:
        """Per span name: calls, total s, self s, errors, and the list of
        per-call durations."""
        child_s = [0.0] * len(self.spans)
        for name, parent, duration, _ in self.spans:
            if parent >= 0:
                child_s[parent] += duration
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "errors": 0, "durations": []})
        for i, (name, _, duration, failed) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child_s[i]
            row["errors"] += int(failed)
            row["durations"].append(duration)
        return dict(out)

    def root_s(self) -> float:
        """Total duration of spans that have no parent span."""
        return sum(d for _, parent, d, _ in self.spans if parent < 0)

    def tree(self) -> dict:
        """Call tree aggregated by path, e.g. ``cli.main>beam.frequency_sweep``:
        calls and total seconds per path."""
        paths = []
        out = defaultdict(lambda: [0, 0.0])
        for name, parent, duration, _ in self.spans:
            path = name if parent < 0 else paths[parent] + ">" + name
            paths.append(path)
            out[path][0] += 1
            out[path][1] += duration
        return {p: {"calls": c, "s": s} for p, (c, s) in out.items()}
