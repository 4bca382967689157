"""Acceptance gate: the eight headline criteria, one pass/fail line each.

The expensive maximizer runs are shared across criteria through a single
module-scoped bench pass. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines as they complete.
"""
import pytest

from confmax.bench import run_all

_CRITERIA = {
    1: ("sphere maximizer reaches the round value",
        ["sphere maximizer value"]),
    2: ("uniform densities are ascent fixed points",
        ["sphere uniform fixed point", "equilateral torus uniform fixed point"]),
    3: ("equilateral torus maximizer reaches the flat extremal value",
        ["equilateral torus maximizer value"]),
    4: ("eigensolver matches closed-form spectra and converges at order 2",
        ["sphere spectrum clusters", "sphere eigenvalue convergence order",
         "square torus spectrum"]),
    5: ("extremality certificates hold at the optima",
        ["sphere certificate", "equilateral torus certificate",
         "harmonic residual mesh refinement", "negative set measure (floor 0)",
         "sphere saturated-set decay"]),
    6: ("genus-dependent bounds hold on every output",
        ["genus bounds on all outputs"]),
    7: ("square torus agrees with the independent brute-force oracle",
        ["square torus vs brute-force oracle"]),
    8: ("structural invariants hold",
        ["stiffness conformal invariance", "mass matrix total",
         "Moebius inverse identity", "frame basis-rotation invariance",
         "deflation constraint", "sphere accepted-step monotonicity",
         "equilateral torus accepted-step monotonicity",
         "equilateral torus ascent accepted-step monotonicity"]),
}


@pytest.fixture(scope="module")
def bench_results():
    results = run_all(quick=False, seed=0)
    return {r.name: r for r in results}


@pytest.mark.parametrize("num", sorted(_CRITERIA))
def test_acceptance_criterion(num, bench_results):
    title, names = _CRITERIA[num]
    missing = [n for n in names if n not in bench_results]
    assert not missing, f"bench did not produce: {missing}"
    subs = [bench_results[n] for n in names]
    passed = all(r.passed for r in subs)
    print(f"CRITERION {num}: {title} ... {'PASS' if passed else 'FAIL'}")
    for r in subs:
        print(f"    [{'ok' if r.passed else 'XX'}] {r.name}: {r.detail} "
              f"(target {r.target})")
    assert passed, "; ".join(f"{r.name}: {r.detail}" for r in subs if not r.passed)


def test_every_bench_result_consumed(bench_results):
    claimed = {n for _, names in _CRITERIA.values() for n in names}
    assert claimed == set(bench_results)


def test_quick_matrix_passes():
    # coarse meshes with doubled tolerances: the matrix `confmax bench --quick` runs
    failed = [f"{r.name}: {r.detail}" for r in run_all(quick=True, seed=0) if not r.passed]
    assert not failed, "; ".join(failed)
