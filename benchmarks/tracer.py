"""Outside-in span tracer for the csck benchmark.

The tracer wraps public functions of the csck modules without touching
their source. A module that imported a function by name holds its own
reference (geometry imports solve_g, cli imports classify), so the
wrapper is bound into every loaded ``csck`` namespace that refers to the
original. Installing asserts that no such reference is left over;
leaving the ``with`` block restores every original.

Spans live in compact in-memory arrays (name, parent, start, end,
failed) and are written out once, at the end, with ``save``. A span's
self time is its duration minus the durations of its direct children;
calls are single-threaded, so children never overlap.
"""

import functools
import sys
import time
from array import array
from collections import namedtuple

import numpy as np

# One traced function: where it is defined, and the span name it reports
# under. wrap_result marks a factory whose returned callable does the work
# (reduction.f_of); calls of that callable report under the same name.
Target = namedtuple("Target", "module function span wrap_result")


def target(module, function, span=None, wrap_result=False):
    return Target(module, function, span or f"{module}.{function}", wrap_result)


TARGETS = (
    target("polynomials", "real_root_profile"),
    target("branches", "classify"),
    target("cases", "match_label"),
    target("quadrature", "partial_fractions"),
    target("quadrature", "gauge_from_anchor", "quadrature.gauge"),
    target("quadrature", "ball_normalize", "quadrature.gauge"),
    target("quadrature", "solve_g"),
    target("quadrature", "eval_F"),
    target("quadrature", "shoot_ode"),
    target("geometry", "potential_u"),
    target("geometry", "metric_sample"),
    target("geometry", "verify_solution"),
    target("geometry", "scalar_curvature"),
    target("geometry", "curvature_fd"),
    target("geometry", "metric_tensor"),
    target("reduction", "f_of", wrap_result=True),
    target("reduction", "ode_residual"),
    target("catalog", "cross_check"),
    target("catalog", "instantiate"),
    target("inequalities", "certify_negative"),
    target("cli", "main"),
)


class Tracer:
    """Context manager that records one span per call of every target."""

    def __init__(self, targets=TARGETS, package="csck"):
        self.targets = targets
        self.package = package
        self.names = tuple(dict.fromkeys(t.span for t in targets))
        self.name = array("b")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self._stack = [-1]
        self._rebound = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, span_id, wrap_result):
        name, parent, start, end, failed = (
            self.name, self.parent, self.start, self.end, self.failed
        )
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(span_id)
            parent.append(stack[-1])
            failed.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if wrap_result:
                return self._wrap(result, span_id, False)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(prefix))
        ]

    def __enter__(self):
        wrappers = {}
        for t in self.targets:
            home = sys.modules[f"{self.package}.{t.module}"]
            original = getattr(home, t.function)
            wrappers[id(original)] = (
                original,
                self._wrap(original, self.names.index(t.span), t.wrap_result),
            )
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, value))
        self._assert_covered(wrappers)
        return self

    def _assert_covered(self, wrappers):
        homes = {(f"{self.package}.{t.module}", t.function) for t in self.targets}
        rebound = {(mod.__name__, attr) for mod, attr, _ in self._rebound}
        missing = homes - rebound
        if missing:
            raise RuntimeError(f"tracer did not rebind {sorted(missing)}")
        for mod in self._modules():
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    raise RuntimeError(f"{mod.__name__}.{attr} is still untraced")

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()
        return False

    # -- results -----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path):
        """Write every span to an .npz file; span names go in ``names``."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(spans, names):
    """Per span name: calls, self time (ms), failures; plus child links.

    Returns (stats, child_counts) where stats maps a span name to a dict
    with calls, self_ms and fail, and child_counts(parent, child) gives the
    number of child spans named ``child`` under spans named ``parent``
    together with the number of parent spans that have none of them.
    """
    name = spans["name"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_ns = dur - child_time
    stats = {}
    for i, label in enumerate(names):
        mask = name == i
        stats[label] = {
            "calls": int(np.count_nonzero(mask)),
            "self_ms": float(self_ns[mask].sum()) / 1e6,
            "fail": int(np.count_nonzero(spans["failed"][mask])),
        }

    def child_counts(parent_name, child_name):
        p_id, c_id = names.index(parent_name), names.index(child_name)
        under = nested & (name == c_id)
        under[under] = name[parent[under]] == p_id
        n_children = int(np.count_nonzero(under))
        has_child = np.zeros(len(name), dtype=bool)
        has_child[parent[under]] = True
        lonely = (name == p_id) & ~has_child & (spans["failed"] == 0)
        return n_children, int(np.count_nonzero(lonely))

    return stats, child_counts
