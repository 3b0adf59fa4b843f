"""The benchmark's trace hooks (`perfbench/tracing.py`) reach into dstab by
name: each trace point wraps a module attribute, and `_sdp_counts` reads
`LinearMatrixForm.terms`.  A rename in `src/` would only show when the
benchmark runs traced, so these tests resolve the hooks here, read-only."""

import importlib
import pathlib

import pytest

from conftest import hurwitz_problem

from dstab.problem import build_lifted
from dstab.relax import assemble_relaxation

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(REPO_ROOT))
        yield importlib.import_module("perfbench.tracing")


def test_every_trace_point_resolves(tracing):
    assert tracing.TRACE_POINTS
    for module_name, attr, _name, _counts in tracing.TRACE_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_sdp_counts_on_hurwitz(tracing):
    sdp = assemble_relaxation(build_lifted(hurwitz_problem()), 2)
    assert tracing._sdp_counts(sdp, ()) == {
        "num_moments": 330,
        "num_psd_blocks": 6,
        "largest_block": 36,
        "pencil_nnz": 2128,
        "schur_work": 15621248,
    }
