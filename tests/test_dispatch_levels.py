"""The golden digests at numpy's lower SIMD dispatch level.

numpy picks a kernel for some ufuncs by the CPU's SIMD level at import, and
``NPY_DISABLE_CPU_FEATURES`` turns levels off.  Every digest of
``tests/test_sim_golden.py`` and ``tests/test_check_golden.py`` must hold
without AVX-512 too, so a CPU without it writes the same bytes.  One
defect is known and pinned here by name (ROADMAP item 4): ``np.power`` in
``model.quantile_of``'s Pareto quantile rounds some draws differently
without AVX-512, which moves the digest of the ``seq-na-series`` run in
both of its golden tests.  A libm power gives that run the same digest at
both levels.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import llnlab

TESTS = Path(__file__).resolve().parent
SRC = Path(llnlab.__file__).resolve().parents[1]

KNOWN_FAILURES = {
    "tests/test_sim_golden.py::test_simulate_golden_digest[seq-na-series]",
    "tests/test_sim_golden.py::test_simulate_golden_digest_through_the_column_kernel"
    "[seq-na-series]",
}


def avx512_features() -> list:
    """The AVX-512 features this CPU reports, and X86_V4, numpy's level that needs them."""
    from numpy._core._multiarray_umath import __cpu_features__

    return sorted(name for name, present in __cpu_features__.items()
                  if present and ("AVX512" in name or name == "X86_V4"))


def test_goldens_hold_without_avx512_but_for_the_pareto_power():
    features = avx512_features()
    if not features:
        pytest.skip("this CPU has no AVX-512: its goldens run at the lower level already")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf",
         "tests/test_sim_golden.py", "tests/test_check_golden.py"],
        cwd=TESTS.parent, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features),
                 PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])),
    )
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    assert failed == KNOWN_FAILURES, proc.stdout[-3000:]
    assert " passed" in proc.stdout.splitlines()[-1], proc.stdout[-3000:]
