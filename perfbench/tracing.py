"""In-memory span tracer that wraps onebitphase's layer boundaries from outside.

The tracer replaces module attributes that the package looks up at call
time (``bench.alt_min``, ``recovery.power_iteration``, ...) with wrappers
that record a span per call, and hands timing proxies for the operator,
least-squares solver and callback objects that reach ``alt_min``.  Nothing
inside the package is edited.  A wrapped name that no longer exists is
recorded in ``absent`` and skipped, so a refactor that renames a layer
shows up as a missing layer instead of a crash.

A span is ``(name, start, end, parent, trial)``: ``parent`` indexes the
enclosing span in ``spans`` (``-1`` for none) and ``trial`` is the trial
id set by :meth:`Tracer.trial`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  Spans share a name when they belong to the
# same layer metric, e.g. both ensemble builders feed ``sensing.ensemble``.
PLAIN_WRAPS = (
    ("bench", "build_paired_ensemble", "sensing.ensemble"),
    ("bench", "build_cdp_operator", "sensing.ensemble"),
    ("bench", "paired_intensities", "sensing.intensities"),
    ("bench", "cdp_intensities", "sensing.intensities"),
    ("sensing", "cdp_apply", "sensing.cdp_apply"),
    ("sensing", "cdp_adjoint", "sensing.cdp_adjoint"),
    ("bench", "apply_model", "channels.observe"),
    ("bench", "quantize", "channels.observe"),
    ("bench", "ratio_weights", "channels.observe"),
    ("bench", "quantized_from_intensities", "channels.observe"),
    ("recovery", "quantize", "channels.observe"),
    ("recovery", "ratio_weights", "channels.observe"),
    ("bench", "one_bit_phase", "recovery.spectral"),
    ("bench", "weighted_one_bit_phase", "recovery.spectral"),
    ("bench", "subexp_phase", "recovery.spectral"),
    ("bench", "dense_lsq_solver", "recovery.lsq_factor"),
    ("bench", "cdp_lsq_solver", "recovery.lsq_factor"),
    ("bench", "alt_min_resampled", "recovery.resampled"),
    ("bench", "multi_init_select", "recovery.select"),
    ("bench", "write_csv", "bench.write"),
    ("bench", "write_manifest", "bench.write"),
)
POWER_WRAPS = (("bench", "power_iteration"), ("recovery", "power_iteration"))
CGLS_WRAPS = (("recovery", "cgls"),)
ALTMIN_WRAPS = (("bench", "alt_min"),)
DIST_WRAPS = (("bench", "dist_sq"),)


class _OpProxy:
    """Operator seen by ``alt_min``: times ``apply``, forwards the rest."""

    def __init__(self, tracer, op):
        self._tracer = tracer
        self._op = op

    def apply(self, x):
        with self._tracer.span("recovery.op_apply"):
            return self._op.apply(x)

    def __getattr__(self, name):
        return getattr(self._op, name)


class Tracer:
    """Collects spans and per-trial counters; install() wires it in."""

    def __init__(self, target: float):
        self.target = target  # accuracy target used to find recovery.hit_iter
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        # per-call records, each tagged with its trial id
        self.capped: list[tuple] = []  # (trial, reached max_iters)
        self.reports: list[tuple] = []  # (trial, RecoveryReport.converged)
        self.altmin: list[tuple] = []  # (trial, iterations run, hit iteration or 0)
        self._stack: list[int] = []
        self._trial = -1
        self._last_dist = None
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._trial)

    @contextmanager
    def trial(self, trial_id: int):
        self._trial = trial_id
        try:
            with self.span("trial"):
                yield
        finally:
            self._trial = -1

    # -- wrappers --------------------------------------------------------------

    def _plain(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self._note_report(out)
            return out

        return wrapper

    def _note_report(self, out):
        converged = getattr(out, "converged", None)
        if isinstance(converged, bool) and hasattr(out, "estimate"):
            self.reports.append((self._trial, converged))

    def _power(self, fn):
        param = inspect.signature(fn).parameters.get("max_iters")
        default_cap = param.default if param is not None else None

        @functools.wraps(fn)
        def wrapper(matvec, *args, **kwargs):
            cap = kwargs.get("max_iters", args[2] if len(args) > 2 else default_cap)
            with self.span("numkit.power"):
                out = fn(self._plain(matvec, "numkit.matvec"), *args, **kwargs)
            if cap is not None:
                self.capped.append((self._trial, out[2] >= cap))
            return out

        return wrapper

    def _cgls(self, fn):
        @functools.wraps(fn)
        def wrapper(apply_a, apply_a_adjoint, *args, **kwargs):
            with self.span("numkit.cgls"):
                return fn(
                    self._plain(apply_a, "numkit.cgls_apply"),
                    self._plain(apply_a_adjoint, "numkit.cgls_apply"),
                    *args,
                    **kwargs,
                )

        return wrapper

    def _dist(self, fn):
        # No span: dist_sq callbacks belong to bench self time.  The value is
        # kept so the alt_min callback proxy can see when the target is hit.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._last_dist = fn(*args, **kwargs)
            return self._last_dist

        return wrapper

    def _altmin(self, fn):
        @functools.wraps(fn)
        def wrapper(op, *args, **kwargs):
            hit = [0]
            callback = kwargs.get("callback")
            if callback is not None:

                def traced_callback(k, x):
                    self._last_dist = None
                    callback(k, x)
                    d = self._last_dist
                    if not hit[0] and d is not None and d <= self.target:
                        hit[0] = k

                kwargs["callback"] = traced_callback
            solver = kwargs.get("lsq_solver")
            if solver is not None:
                kwargs["lsq_solver"] = self._plain(solver, "recovery.lsq_solve")
            with self.span("recovery.altmin"):
                report = fn(_OpProxy(self, op), *args, **kwargs)
            self._note_report(report)
            self.altmin.append((self._trial, report.iterations, hit[0]))
            return report

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make):
        module = importlib.import_module(f"onebitphase.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            if f"{module_name}.{attr}" not in self.absent:
                self.absent.append(f"{module_name}.{attr}")
            return
        self._undo.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        for module_name, attr, name in PLAIN_WRAPS:
            self._patch(module_name, attr, lambda fn, name=name: self._plain(fn, name))
        for module_name, attr in POWER_WRAPS:
            self._patch(module_name, attr, self._power)
        for module_name, attr in CGLS_WRAPS:
            self._patch(module_name, attr, self._cgls)
        for module_name, attr in ALTMIN_WRAPS:
            self._patch(module_name, attr, self._altmin)
        for module_name, attr in DIST_WRAPS:
            self._patch(module_name, attr, self._dist)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
