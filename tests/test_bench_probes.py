"""The benchmark's layer probes and workloads still find what they use.

`perfbench/tracer.py` patches wittmod functions by name and wraps
`linalg.rref` with a one-argument wrapper; `perfbench/workloads.py`
imports converters, printers and element types from wittmod.  A rename
of a probed or imported name, or a second argument to `rref`, would break
only the benchmark run; these tests make it fail here instead.  Both
files are loaded by path, so `perfbench/` stays a plain directory of
scripts.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

import wittmod.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"

if not TRACER.exists():
    pytest.skip("perfbench/ is absent", allow_module_level=True)

# every one of these must be reached by the request below
REACHED = ["tensor_modules.pbw_basis_rewrite",
           "tensor_modules.whittaker_space", "tensor_modules.TensorSpan.insert"]

REQUEST = [
    ["wh", "--m", "1", "--n", "1", "--D", "2"],
    ["weighting", "t1 @ e1 + 1 @ e2", "--r", "1", "--m", "1", "--n", "1"],
    ["report", "--check", "simplicity_probe", "--m", "1", "--n", "1",
     "--out", "-", "--stable"],
    # the product basis is descent_roundtrip's reference route
    ["report", "--check", "descent_roundtrip", "--m", "1", "--n", "1",
     "--trials", "2", "--out", "-", "--stable"],
]


def _load(path):
    spec = importlib.util.spec_from_file_location("perfbench_" + path.stem,
                                                  path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _request():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes = [cli.run_command(argv) for argv in REQUEST]
    return codes, out.getvalue()


def test_probes_install_and_trace_the_same_result():
    tracer = _load(TRACER).Tracer()
    plain = _request()
    tracer.install()
    try:
        traced = tracer.request(_request)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert plain[0] == [0, 0, 0, 0]
    calls = {name: got[0] for name, got in tracer.layer_times().items()}
    assert [name for name in REACHED if not calls[name]] == []
    # uninstall restores the originals
    assert _request() == plain


def test_calculator_workload_runs_on_the_current_api():
    # loading resolves every name the workloads import; one block of
    # calculator requests, with their checks, calls what they use at run
    # time (WittElement.zero, as_tensor, lower_t, ...)
    workloads = _load(PERFBENCH / "workloads.py")
    requests = workloads.calculator_pass(0, 0, blocks=1)
    assert sorted({req.kind for req in requests}) == workloads.CALC_KINDS
    assert [req.verdict(req.call()) for req in requests] == [""] * 32
