from types import SimpleNamespace

import numpy as np

from confmax.bench import _clusters_check, bounds_check, monotonicity_check, value_check
from confmax.mesh import SURFACES


def _trace(*lams):
    return SimpleNamespace(rows=[SimpleNamespace(lambda1_area=lam) for lam in lams])


def test_clusters_check_labels_the_tolerance_it_checks():
    # a square-torus second cluster 1.7% off its closed form: inside 2%, outside 1%
    t0 = SURFACES["flat-torus:square"].lambda1_area
    res = SimpleNamespace(eigenvalues=np.array([t0] * 4 + [80.3263] * 4),
                          clusters=(range(4), range(4, 8)))
    loose = _clusters_check("square torus spectrum", res, (4, 4), (t0, 2 * t0), 0.02)
    assert loose.passed
    assert loose.target == f"4 @ {t0:.3f}, 4 @ {2 * t0:.3f} (2%)"
    tight = _clusters_check("square torus spectrum", res, (4, 4), (t0, 2 * t0), 0.01)
    assert not tight.passed
    assert tight.target.endswith(" (1%)")


def test_value_check_labels_the_tolerance_it_checks():
    # 1.5% off the closed form passes and 2.5% off fails: the label's 2% is the one checked
    t = SURFACES["icosphere"].lambda1_area
    near = value_check("sphere", "icosphere:4", 1.015 * t)
    assert near.passed
    assert near.target == f"8pi = {t:.4f} (2%)"
    assert not value_check("sphere", "icosphere:4", 1.025 * t).passed
    assert not value_check("sphere", "icosphere:4", 0.975 * t).passed
    # the equilateral torus reads its own row of SURFACES
    t = SURFACES["flat-torus:equilateral"].lambda1_area
    torus = value_check("equilateral torus", "flat-torus:equilateral:48", 0.985 * t)
    assert torus.passed
    assert torus.target == f"8pi^2/sqrt3 = {t:.4f} (2%)"


def test_monotonicity_check_reports_the_rows_it_compared():
    one = monotonicity_check(_trace(46.0), "torus")
    assert one.passed and one.value == 0.0
    assert one.detail == "1 row, no step to compare"
    three = monotonicity_check(_trace(25.0, 25.1, 25.3), "sphere")
    assert three.passed
    assert three.detail == "3 rows, min step 1.00e-01"
    # the tolerance is unchanged: a drop past 10 lam_tol fails
    assert not monotonicity_check(_trace(25.0, 25.0 * (1.0 - 2e-6)), "sphere").passed


def _run(status, lam, yang_yau_ok, hersch_floor_ok):
    bounds = {"yang_yau_ok": yang_yau_ok, "hersch_floor_ok": hersch_floor_ok}
    return SimpleNamespace(status=status,
                           certificate={"bounds": bounds, "lambda1_area": lam})


def test_bounds_check_names_each_violation():
    runs = [("sphere over", _run("collapse", 36.946, False, True)),
            ("torus under", _run("converged", 20.0, True, False))]
    res = bounds_check(runs)
    assert not res.passed
    assert res.value == 2  # the runs checked
    assert res.detail == ("sphere over: 36.946 over the Yang-Yau bound; "
                          "torus under: 20.000 < Hersch floor")
