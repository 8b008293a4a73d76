"""The package surface: every exported name resolves and README names it,
no sweep takes a scheduling knob, every workspace and lane weight is passed
in, every attribute the benchmark tracer wraps exists, and every sweep
function has a caller."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import dbelines

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_and_are_documented():
    text = README.read_text(encoding="utf-8")
    assert len(set(dbelines.__all__)) == len(dbelines.__all__)
    for name in dbelines.__all__:
        assert hasattr(dbelines, name), name
        assert re.search(rf"\b{name}\b", text), name


def test_sweeps_take_no_jobs():
    # every sweep runs in one process, so none takes a worker count; what
    # followed jobs is keyword-only, so a jobs passed by position is an error
    for sweep in (dbelines.verify_theorem, dbelines.claims_sweep,
                  dbelines.min_lines_table):
        params = inspect.signature(sweep).parameters
        assert "jobs" not in params, sweep.__name__
        assert params["progress"].kind is inspect.Parameter.KEYWORD_ONLY, sweep.__name__


def test_workspaces_are_passed_in():
    # a batch's planes live in the workspace its caller hands over, so no
    # kernel, and not _sweep, makes a fresh one when given none
    from dbelines import sweep as sw
    from dbelines import verify
    takers = [f for _, f in inspect.getmembers(sw, inspect.isfunction)
              if "ws" in inspect.signature(f).parameters]
    assert {"label_bits", "class_law_counts"} <= {f.__name__ for f in takers}
    for f in (verify._sweep, *takers):
        ws = inspect.signature(f).parameters["ws"]
        assert ws.default is inspect.Parameter.empty, f.__name__


def test_lane_weights_are_passed_in():
    # a count is weighted by the weights its caller hands over, never by
    # state that outlives the call, so each counting kernel takes them last
    # and with no default, and the sweep module holds no context variable
    from dbelines import sweep as sw
    for f in (sw.popcount, sw.distinct_line_counts, sw.twin_law_counts,
              sw.class_law_counts, sw.size_bound_counts):
        params = list(inspect.signature(f).parameters.values())
        assert params[-1].name == "weights", f.__name__
        assert params[-1].default is inspect.Parameter.empty, f.__name__
    source = inspect.getsource(sw)
    for module in ("contextvars", "contextlib"):
        assert not re.search(rf"^\s*(import|from)\s+{module}\b", source, re.M), module


def bench_targets():
    """TARGETS of bench/tracing.py: (module, attribute, span name)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_bench_tracer_targets_resolve():
    # the benchmark tracer wraps these attributes by name; a renamed or
    # deleted one would otherwise fail only the benchmark's own tests
    targets = bench_targets()
    assert targets
    for modname, attr, _ in targets:
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            f"{modname}.{attr}"


def test_sweep_functions_have_callers():
    # a helper whose last caller is gone fails here: every function that
    # dbelines.sweep defines is called from the package or wrapped by the
    # benchmark tracer
    from dbelines import sweep as sw
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in Path(dbelines.__file__).parent.glob("*.py"))
    traced = {attr for modname, attr, _ in bench_targets() if modname == sw.__name__}
    for name, f in inspect.getmembers(sw, inspect.isfunction):
        if f.__module__ == sw.__name__ and name not in traced:
            assert re.search(rf"(?<!def )\b{name}\(", source), name
