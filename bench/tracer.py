"""Outside-in layer tracer for the boseloops CLI.

The library is not modified.  `Tracer.install()` replaces each listed public
function with a timing wrapper in every `boseloops.*` namespace that bound it
(the home module and every module that did `from ... import name`), so calls
made through any of those names are counted.  A listed name that is missing or
not callable raises `TraceError`: a renamed function must stop the traced run,
never let it report zero work.

Each thread keeps its own span stack and counters, so the `--threads` pool of
the CLI traces without locks on the hot path; `report()` merges them after the
CLI call has returned and its pool has been joined.

Spans give `<span>.calls`, `<span>.total_s` and `<span>.self_s`; self time is
total time minus the time of nested listed spans in the same thread.  Totals
are summed over threads, so under `--threads 2` they can exceed wall time.

Counters: `thermo.solve_gap.distinct` counts distinct (target, trap, ctl)
arguments and `repeat_share` is 1 - distinct/calls; `nu_evals` counts the
calls `scipy.optimize.brentq` makes to the function `solve_gap` hands it (not
the two bracket evaluations before it); `kernel.log1mexp.elems.solve` and
`.window` count the array elements passed to `thermo.log1mexp` inside and
outside a `solve_gap` span.  `kernels` has no span: none of its public
functions is on a CLI hot path, so kernel cost shows in its callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from time import perf_counter

# (span name, home module, attribute) for every traced public function
SPANS = (
    ("cli.parse_config", "boseloops.cli", "parse_config"),
    ("cli.serialize", "boseloops.cli", "ResultTable.to_csv"),
    ("cli.serialize", "boseloops.cli", "ResultTable.to_json"),
    ("specfun.polylog", "boseloops.specfun", "polylog"),
    ("thermo.solve_gap", "boseloops.thermo", "solve_gap"),
    ("thermo.gbec_band_sum", "boseloops.thermo", "gbec_band_sum"),
    ("thermo.nu_rescaled", "boseloops.thermo", "nu_rescaled"),
    ("thermo.gap_asymptotic", "boseloops.thermo", "gap_asymptotic"),
    ("rdm.rdm_loops", "boseloops.rdm", "rdm_loops"),
    ("rdm.noncondensate", "boseloops.rdm", "noncondensate"),
    ("rdm.rdm_rescaled", "boseloops.rdm", "rdm_rescaled"),
    ("rdm.loop_decompose", "boseloops.rdm", "loop_decompose"),
    ("rdm.local_density_scaled", "boseloops.rdm", "local_density_scaled"),
    ("aniso.classify", "boseloops.aniso", "classify"),
    ("aniso.meso_q1d", "boseloops.aniso", "meso_q1d"),
    ("aniso.additional_q2d", "boseloops.aniso", "additional_q2d"),
    ("aniso.q2d_chi_split", "boseloops.aniso", "q2d_chi_split"),
    ("scipy.quad", "scipy.integrate", "quad"),
)
SOLVE_SPAN = "thermo.solve_gap"


class TraceError(RuntimeError):
    """A traced name is missing, or a wrapper could not be bound."""


class _ThreadState:
    __slots__ = ("stack", "spans", "in_solve", "solved", "nu_evals",
                 "elems_solve", "elems_window")

    def __init__(self):
        self.stack = []          # child-time accumulators of open spans
        self.spans = {}          # name -> [calls, total_s, self_s]
        self.in_solve = 0        # depth of open solve_gap spans
        self.solved = []         # (target, trap, ctl) of each solve
        self.nu_evals = 0
        self.elems_solve = 0
        self.elems_window = 0


def _resolve(module_name: str, attr: str):
    """(owner, final attribute name, object) for a dotted attribute path."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceError(f"cannot import {module_name}: {exc}") from exc
    *parents, last = attr.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"{module_name}.{attr}: {part} is missing")
    obj = getattr(owner, last, None)
    if not callable(obj):
        raise TraceError(f"{module_name}.{attr} is missing or not callable")
    return owner, last, obj


def _rebind(module_name: str, attr: str, wrap) -> None:
    """Replace module_name.attr by wrap(obj) in its home and in every
    boseloops namespace that binds the same object."""
    owner, last, obj = _resolve(module_name, attr)
    wrapper = wrap(obj)
    if owner is not sys.modules[module_name]:  # a method on a class
        setattr(owner, last, wrapper)
        return
    homes = [m for n, m in list(sys.modules.items())
             if m is not None and (n == "boseloops" or n.startswith("boseloops."))]
    homes.append(owner)
    bound = 0
    for mod in homes:
        for name, value in list(vars(mod).items()):
            if value is obj:
                setattr(mod, name, wrapper)
                bound += 1
    if bound == 0:
        raise TraceError(f"{module_name}.{attr} is bound in no namespace")


class Tracer:
    """Installs the wrappers and aggregates spans and counters per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _span(self, name: str, fn):
        solve = name == SOLVE_SPAN
        signature = inspect.signature(fn) if solve else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st = self._state()
            if solve:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                st.solved.append(tuple(bound.arguments.values()))
                st.in_solve += 1
            child = [0.0]
            st.stack.append(child)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += dt
                if solve:
                    st.in_solve -= 1
                agg = st.spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child[0]
        return span

    def _log1mexp(self, fn):
        # called ~10^5 times on tiny arrays by quadrature callbacks: keep lean
        local = self._local
        state = self._state

        @functools.wraps(fn)
        def counted(v):
            st = getattr(local, "state", None) or state()
            n = getattr(v, "size", 1)
            if st.in_solve:
                st.elems_solve += n
            else:
                st.elems_window += n
            return fn(v)
        return counted

    def _brentq(self, fn):
        @functools.wraps(fn)
        def brentq(f, *args, **kwargs):
            st = self._state()

            def counted(*x):
                st.nu_evals += 1
                return f(*x)
            return fn(counted, *args, **kwargs)
        return brentq

    def install(self) -> None:
        """Wrap every listed function; raises TraceError on a missing name."""
        for name, module, attr in SPANS:
            _rebind(module, attr, functools.partial(self._span, name))
        _rebind("boseloops.thermo", "log1mexp", self._log1mexp)
        _rebind("scipy.optimize", "brentq", self._brentq)

    def report(self) -> dict:
        """Merged per-layer metrics: span calls/total_s/self_s and counters."""
        out = {}
        for name in dict.fromkeys(n for n, _, _ in SPANS):
            calls = total = self_s = 0
            for st in self._states:
                c, t, s = st.spans.get(name, (0, 0.0, 0.0))
                calls, total, self_s = calls + c, total + t, self_s + s
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        solved = [key for st in self._states for key in st.solved]
        distinct = len(set(solved))
        out[f"{SOLVE_SPAN}.distinct"] = distinct
        out[f"{SOLVE_SPAN}.repeat_share"] = \
            1.0 - distinct / len(solved) if solved else 0.0
        out[f"{SOLVE_SPAN}.nu_evals"] = sum(st.nu_evals for st in self._states)
        out["kernel.log1mexp.elems.solve"] = \
            sum(st.elems_solve for st in self._states)
        out["kernel.log1mexp.elems.window"] = \
            sum(st.elems_window for st in self._states)
        return out
