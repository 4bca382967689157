import math

import numpy as np
import pytest

from confmax.fem import DensityField
from confmax.mesh import gen_flat_torus, gen_icosphere

EQUILATERAL = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
SQUARE = np.eye(2)


def tilted_density(mesh, seed):
    """Unit-mass smooth tilt 1 + (x . a)/2 of a sphere about a seeded axis a."""
    axis = np.random.default_rng(seed).standard_normal(3)
    x = mesh.embedding / np.linalg.norm(mesh.embedding, axis=1)[:, None]
    vals = 1.0 + 0.5 * (x @ (axis / np.linalg.norm(axis)))
    return DensityField(mesh, vals / (mesh.vertex_areas @ vals))


def vanishing_density(mesh, zero):
    """Unit-mass uniform density that is 0 on the vertices `zero` and their one-ring.

    The mass matrix then has a zero row at every vertex of `zero`: each element
    touching it carries no density.
    """
    touching = np.isin(mesh.triangles, list(zero)).any(axis=1)
    vals = np.ones(mesh.vertex_count)
    vals[np.unique(mesh.triangles[touching])] = 0.0
    return vals / (mesh.vertex_areas @ vals)


def polar_cap(mesh):
    """Vertices of a unit-sphere mesh with z > 0.8."""
    x = mesh.embedding / np.linalg.norm(mesh.embedding, axis=1)[:, None]
    return np.flatnonzero(x[:, 2] > 0.8)


def disjoint_sphere_and_torus():
    """Intrinsic-JSON fields of icosphere:1 and a 4 x 4 square torus side by side.

    Euler characteristic 2 + 0 = 2, so only a connectivity check can refuse it.
    """
    ico, torus = gen_icosphere(1), gen_flat_torus(SQUARE, 4, 4)
    n = ico.vertex_count
    return {"vertices": n + torus.vertex_count,
            "triangles": np.vstack([ico.triangles, torus.triangles + n]).tolist(),
            "edge_lengths": [[int(i) + o, int(j) + o, float(l)]
                             for m, o in ((ico, 0), (torus, n))
                             for (i, j), l in zip(m.edges, m.edge_lengths)]}


@pytest.fixture(scope="session")
def sphere2():
    return gen_icosphere(2)


@pytest.fixture(scope="session")
def sphere3():
    return gen_icosphere(3)


@pytest.fixture(scope="session")
def sphere4():
    return gen_icosphere(4)


@pytest.fixture(scope="session")
def square_torus16():
    return gen_flat_torus(SQUARE, 16, 16)


@pytest.fixture(scope="session")
def eq_torus16():
    return gen_flat_torus(EQUILATERAL, 16, 16)


@pytest.fixture(scope="session")
def eq_torus24():
    return gen_flat_torus(EQUILATERAL, 24, 24)
