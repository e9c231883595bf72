"""MILP backend on top of HiGHS, through the binding scipy bundles.

This is the primary solver: HiGHS is an exact branch-and-cut MILP solver,
standing in for the Gurobi Optimizer the paper's prototype invoked.

scipy ships HiGHS's own pybind11 binding as the extension module
``scipy.optimize._highspy._core``. :func:`highs_core` loads that one file
without running ``scipy/optimize/__init__.py``, whose import costs about
half a second and 40 MB before the first solve; :func:`solve_scipy` then
drives ``_Highs`` as ``scipy.optimize.milp`` does (same matrix, options
and status mapping), so an unseeded solve takes the same search path.
Unlike ``milp`` it can seed the search: a ``warm_start`` assignment goes
to HiGHS as its first incumbent (``_Highs.setSolution``).

HiGHS prints a few lines from C straight onto file descriptor 1, whatever
``log_to_console`` says; :func:`solve_scipy` points descriptor 1 at 2
while HiGHS runs, so a caller's stdout (``p4all compile`` writes the P4
there) carries none of them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
import time
import warnings

import numpy as np

from ..obs import trace
from .model import Model
from .solution import Solution, SolveStatus, SolverError

__all__ = ["highs_core", "solve_scipy"]

_CORE = "scipy.optimize._highspy._core"
_REQUIRES = ("the HiGHS backend needs scipy >= 1.17, whose "
             f"{_CORE} extension provides the _Highs binding")


@functools.cache
def highs_core():
    """scipy's HiGHS binding module, loaded once per process.

    Reuses the module when ``scipy.optimize`` already imported it;
    otherwise loads the extension file on its own and registers it under
    its name, so a later ``import scipy.optimize`` shares it. Falls back
    to the regular import when the file is not where scipy keeps it.
    """
    core = sys.modules.get(_CORE) or _load_extension()
    if core is None:
        try:
            from scipy.optimize._highspy import _core as core
        except ImportError as exc:
            raise SolverError(_REQUIRES) from exc
    if not hasattr(core, "_Highs"):
        raise SolverError(_REQUIRES)
    return core


def _load_extension():
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "optimize",
                     "_highspy"),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(_CORE)
    if spec is None:
        return None
    core = importlib.util.module_from_spec(spec)
    sys.modules[_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return core


def _status(core, model_status) -> SolveStatus:
    """``milp``'s status mapping, from HiGHS's model status."""
    kind = core.HighsModelStatus
    if model_status == kind.kOptimal:
        return SolveStatus.OPTIMAL
    if model_status in (kind.kTimeLimit, kind.kIterationLimit):
        return SolveStatus.TIMEOUT
    # milp reports a model HiGHS refused to load as infeasible.
    if model_status in (kind.kInfeasible, kind.kModelError):
        return SolveStatus.INFEASIBLE
    if model_status == kind.kUnbounded:
        return SolveStatus.UNBOUNDED
    return SolveStatus.ERROR


def _pass_model(core, highs, c, matrix, lo, hi, lbs, ubs, integrality):
    """Hand ``highs`` the column-wise LP of :meth:`Model.to_sparse_form`'s
    arrays — the ``HighsLp`` ``milp`` builds from the same matrix — read
    straight from their buffers (float64 values, int32 starts, indices
    and integrality). Returns HiGHS's status."""
    start, index, value = matrix
    return highs.passModel(
        len(c), len(lo), len(value), int(core.MatrixFormat.kColwise),
        int(core.ObjSense.kMinimize), 0.0, c, lbs, ubs, lo, hi,
        start, index, value, integrality)


def _values(model: Model, x: np.ndarray) -> dict:
    """Var → value of the column values ``x`` (overwritten), each integer
    column rounded half to even as ``round`` does; ``+ 0.0`` makes a
    rounded -0.0 the 0.0 ``float(round(v))`` gives."""
    integer = model._column_data()[3]
    x[integer] = np.round(x[integer]) + 0.0
    return dict(zip(model.variables, x.tolist()))


#: held while descriptor 1 points at 2, so two threads never save and
#: restore it crosswise (HiGHS holds the interpreter lock as it runs, so
#: no solve overlaps another anyway)
_REDIRECT = threading.Lock()


@functools.cache
def _libc():
    return ctypes.CDLL(None)


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at 2 for the block, then restore it.
    Python's and C stdio's buffers are flushed at both ends, so what was
    written before reaches the real stdout and nothing written inside
    does (C stdio buffers a stdout that is a file or a pipe)."""
    with _REDIRECT:
        sys.stdout.flush()
        _libc().fflush(None)
        saved = os.dup(1)
        try:
            os.dup2(2, 1)
            try:
                yield
            finally:
                sys.stdout.flush()
                _libc().fflush(None)
                os.dup2(saved, 1)
        finally:
            os.close(saved)


def _seed(core, highs, model: Model, warm_start: dict) -> None:
    """Hand ``warm_start`` (Var → value) to HiGHS as its first
    incumbent. HiGHS checks the point itself and ignores one that is
    not feasible, so the search then starts unseeded."""
    seed = core.HighsSolution()
    seed.col_value = [float(warm_start.get(var, 0.0))
                      for var in model.variables]
    seed.value_valid = True
    highs.setSolution(seed)


def solve_scipy(
    model: Model,
    time_limit: float | None = None,
    warm_start: dict | None = None,
    fixed: dict | None = None,
    rel_gap: float | None = None,
) -> Solution:
    """Solve ``model`` with HiGHS's MILP solver.

    Integer variable values in the returned solution are rounded to the
    nearest integer (HiGHS returns them within tolerance of integrality).
    ``warm_start`` (Var → value) seeds the search with that incumbent;
    without one the solve is the one ``scipy.optimize.milp`` makes.
    ``fixed`` pins variables to values; ``rel_gap`` overrides HiGHS's
    default ``mip_rel_gap`` of 1e-4 — the gap at which it calls a
    solution optimal, reported back as :attr:`Solution.mip_gap`.
    """
    core = highs_core()
    c, matrix, lo, hi, (lbs, ubs), integrality = model.to_sparse_form(fixed)
    options = {"log_to_console": False}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if rel_gap is not None:
        options["mip_rel_gap"] = float(rel_gap)
        if rel_gap == 0.0:
            # Feasibility jump only looks for a first incumbent; at zero
            # gap the search proves the optimum anyway, so it cannot
            # change the answer, only delay it.
            options["mip_heuristic_run_feasibility_jump"] = False

    started = time.perf_counter()
    with trace.span(
        "ilp.scipy",
        variables=len(model.variables),
        time_limit=time_limit,
    ) as span:
        highs = core._Highs()
        for key, val in options.items():
            # HiGHS keeps the default for a value out of range, as milp does.
            if highs.setOptionValue(key, val) != core.HighsStatus.kOk:
                warnings.warn(f"HiGHS rejected {key}={val!r}; using its "
                              "default", RuntimeWarning, stacklevel=2)
        x = None
        nodes, dual_bound, gap = 0, None, None
        ran = _pass_model(core, highs, c, matrix, lo, hi, lbs, ubs,
                          integrality) != core.HighsStatus.kError
        if not ran:
            model_status = core.HighsModelStatus.kModelError
        else:
            if warm_start is not None:
                _seed(core, highs, model, warm_start)
            with _stdout_to_stderr():
                ran = highs.run() != core.HighsStatus.kError
            model_status = highs.getModelStatus()
        if ran:
            info = highs.getInfo()
            is_mip = bool(integrality.sum())
            limits = (core.HighsModelStatus.kTimeLimit,
                      core.HighsModelStatus.kIterationLimit,
                      core.HighsModelStatus.kSolutionLimit)
            # A MIP stopped at a limit has a solution iff it has an
            # incumbent; an LP has one only at optimality.
            if model_status == core.HighsModelStatus.kOptimal or (
                is_mip and model_status in limits
                and info.objective_function_value != core.kHighsInf
            ):
                x = np.array(highs.getSolution().col_value)
                if is_mip:
                    nodes = int(info.mip_node_count)
                    # HiGHS bounds the minimised ``c @ x``; report the
                    # model's sense.
                    sign = -1.0 if model.objective.maximize else 1.0
                    dual_bound = sign * float(info.mip_dual_bound) \
                        + model.objective.expr.constant
                    gap = float(info.mip_gap)
        status = _status(core, model_status)
        span.set_attrs(
            status=status.value,
            nodes_explored=nodes,
            mip_dual_bound=dual_bound,
            mip_gap=gap,
        )
    elapsed = time.perf_counter() - started
    if x is None:
        return Solution(status=status, solve_seconds=elapsed, backend="scipy-highs")

    values = _values(model, x)
    objective = model.objective.expr.value(values)
    return Solution(
        status=status,
        objective=objective,
        values=values,
        solve_seconds=elapsed,
        backend="scipy-highs",
        nodes_explored=nodes,
        mip_dual_bound=dual_bound,
        mip_gap=gap,
    )
