import json
import math

import numpy as np
import pytest

from confmax.eigen import solve_pencil
from confmax.fem import assemble_mass, uniform_density
from confmax.mesh import (_ICO_FACES, _ICO_VERTS, SURFACES, MeshError, TriangleMesh,
                          gen_flat_torus, gen_icosphere, load_mesh, mesh_from_spec, mesh_stats,
                          save_intrinsic_json)
from conftest import EQUILATERAL, SQUARE, disjoint_sphere_and_torus


def regular_tetrahedron():
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    return TriangleMesh.from_embedding(verts, tris)


def test_icosahedron_combinatorics():
    m = gen_icosphere(0)
    assert m.vertex_count == 12
    assert len(m.triangles) == 20
    assert m.genus == 0


def test_icosphere_counts():
    m = gen_icosphere(2)
    assert m.vertex_count == 162
    assert len(m.triangles) == 320


def test_icosphere_area_converges():
    # measured deficit of the inscribed icosphere at s=4 is 0.12%
    m = gen_icosphere(4)
    assert m.area == pytest.approx(12.551353880, rel=1e-8)
    assert abs(m.area - 4 * math.pi) / (4 * math.pi) < 1.5e-3


def test_icosphere_area_monotone_order2():
    areas = [gen_icosphere(s).area for s in range(5)]
    assert all(b > a for a, b in zip(areas, areas[1:]))
    errs = [4 * math.pi - a for a in areas]
    # asymptotic regime: order >= 1.9 from s=1 on
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(1, len(errs) - 1)]
    assert min(orders) >= 1.9


def test_icosphere_guard():
    with pytest.raises(ValueError):
        gen_icosphere(9)


def test_flat_torus_square():
    m = gen_flat_torus(SQUARE, 8, 8)
    assert m.genus == 1
    assert len(m.triangles) == 128
    assert abs(m.area - 1.0) < 1e-12


def test_flat_torus_equilateral_area():
    m = gen_flat_torus(EQUILATERAL, 8, 8)
    assert abs(m.area - math.sqrt(3) / 2) < 1e-12


def test_flat_torus_guards():
    with pytest.raises(ValueError, match="coarse"):
        gen_flat_torus(SQUARE, 2, 8)
    with pytest.raises(ValueError, match="singular"):
        gen_flat_torus([[1, 0], [2, 0]], 8, 8)


def test_mesh_stats(sphere3):
    st = mesh_stats(sphere3)
    assert st["genus"] == 0
    assert st["area"] == pytest.approx(sphere3.area)
    t = gen_flat_torus(EQUILATERAL, 8, 8)
    st_t = mesh_stats(t)
    assert st_t["genus"] == 1
    assert st_t["area"] == pytest.approx(math.sqrt(3) / 2)
    assert st_t["quality_min"] > 0


def test_embedding_reproduces_lengths(sphere2):
    emb = sphere2.embedding
    d = np.linalg.norm(emb[sphere2.edges[:, 0]] - emb[sphere2.edges[:, 1]], axis=1)
    assert np.max(np.abs(d - sphere2.edge_lengths) / sphere2.edge_lengths) < 1e-12


def test_revalidation_roundtrip(sphere2):
    rebuilt = TriangleMesh(
        sphere2.vertex_count, sphere2.triangles,
        [(int(i), int(j), float(l)) for (i, j), l in
         zip(sphere2.edges, sphere2.edge_lengths)])
    assert rebuilt.genus == sphere2.genus
    assert rebuilt.area == pytest.approx(sphere2.area)


def test_triangle_inequality_rejected(tmp_path):
    data = {"vertices": 3, "triangles": [[0, 1, 2]],
            "edge_lengths": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 3.0]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(MeshError, match="triangle inequality"):
        load_mesh(p)


def _write_off(m, path):
    lines = ["OFF", f"{m.vertex_count} {len(m.triangles)} 0"]
    lines += [" ".join(map(str, v)) for v in m.embedding]
    lines += ["3 " + " ".join(map(str, t)) for t in m.triangles]
    path.write_text("\n".join(lines))
    return path


def test_off_icosahedron_roundtrip(tmp_path):
    loaded = load_mesh(_write_off(gen_icosphere(0), tmp_path / "ico.off"))
    assert loaded.vertex_count == 12
    assert len(loaded.triangles) == 20
    assert loaded.genus == 0


def test_from_embedding_refuses_bad_coordinates():
    m = gen_icosphere(0)
    with pytest.raises(MeshError, match="embedding must be"):
        TriangleMesh.from_embedding(m.embedding[:, :2], m.triangles)
    verts = m.embedding.copy()
    verts[0, 1] = math.nan
    with pytest.raises(MeshError, match=r"^non-finite length on edge \(0,1\)$"):
        TriangleMesh.from_embedding(verts, m.triangles)


def test_off_nonmanifold_reports_edge(tmp_path):
    # two triangles glued along an edge: open boundary everywhere
    p = tmp_path / "bad.off"
    p.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n3 1 3 2\n")
    with pytest.raises(MeshError, match="edge"):
        load_mesh(p)


def test_off_quad_rejected(tmp_path):
    p = tmp_path / "quad.off"
    p.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshError, match="triangles only"):
        load_mesh(p)


def _donut_obj(nu=12, nv=8, R=2.0, r=0.7):
    lines = []
    for i in range(nu):
        for j in range(nv):
            a, b = 2 * math.pi * i / nu, 2 * math.pi * j / nv
            x = (R + r * math.cos(b)) * math.cos(a)
            y = (R + r * math.cos(b)) * math.sin(a)
            z = r * math.sin(b)
            lines.append(f"v {x} {y} {z}")
    def vid(i, j):
        return (i % nu) * nv + (j % nv) + 1
    for i in range(nu):
        for j in range(nv):
            lines.append(f"f {vid(i, j)} {vid(i + 1, j)} {vid(i + 1, j + 1)}")
            lines.append(f"f {vid(i, j)} {vid(i + 1, j + 1)} {vid(i, j + 1)}")
    return "\n".join(lines)


def test_obj_genus1(tmp_path):
    p = tmp_path / "donut.obj"
    p.write_text(_donut_obj())
    m = load_mesh(p)
    assert m.genus == 1


def test_orientation_conflict(tmp_path):
    m = gen_icosphere(0)
    tris = m.triangles.copy()
    tris[0] = tris[0][::-1]  # flip one triangle
    with pytest.raises(MeshError, match="orientation"):
        TriangleMesh.from_embedding(m.embedding, tris)


def test_intrinsic_json_roundtrip(tmp_path, eq_torus16):
    p = tmp_path / "torus.json"
    save_intrinsic_json(eq_torus16, p)
    m = load_mesh(p)
    assert m.genus == 1
    assert m.area == pytest.approx(eq_torus16.area, rel=1e-12)


@pytest.mark.parametrize("field, value, message", [
    ("vertices", [1, 2], "'vertices' must be an integer vertex count"),
    ("vertices", 42.0, "'vertices' must be an integer vertex count"),
    ("triangles", [[0, 1]], "'triangles' must be a list of integer triples"),
    ("triangles", [[0, 1, 2.5]], "'triangles' must be a list of integer triples"),
    ("triangles", 7, "'triangles' must be a list of integer triples"),
    ("edge_lengths", [5], "'edge_lengths' must be a list of [i, j, length] triples"),
    ("edge_lengths", [[0, 11, 0.5], [0.7, 1.2, 0.5]],
     "'edge_lengths' row 1: endpoints 0.7, 1.2 are not integer vertex indices"),
    ("edge_lengths", [[0, 11.0, 0.5]],
     "'edge_lengths' row 0: endpoints 0, 11.0 are not integer vertex indices"),
], ids=["vertices-list", "vertices-float", "triangles-pair", "triangles-float",
        "triangles-int", "edge-lengths-flat", "edge-lengths-fractional",
        "edge-lengths-float"])
def test_malformed_intrinsic_json_rejected(tmp_path, field, value, message):
    data = {"vertices": 42, "triangles": gen_icosphere(1).triangles.tolist(),
            "edge_lengths": []}
    data[field] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(MeshError) as exc:
        load_mesh(p)
    assert str(exc.value) == f"{p}: {message}"


def test_tetrahedron_valid():
    m = regular_tetrahedron()
    assert m.genus == 0
    assert m.vertex_count == 4


def _triples(mesh):
    return [[int(i), int(j), float(l)] for (i, j), l in zip(mesh.edges, mesh.edge_lengths)]


def _two_icosahedra(glue):
    """Two icosahedra, the second's vertex 0 identified with the first's if `glue`."""
    ico = gen_icosphere(0)
    relabel = np.arange(12) + (11 if glue else 12)
    if glue:
        relabel[0] = 0
    lengths = _triples(ico)
    lengths += [[int(relabel[i]), int(relabel[j]), l] for i, j, l in lengths]
    return relabel[-1] + 1, np.vstack([ico.triangles, relabel[ico.triangles]]), lengths


def _rejection_case(case):
    ico = gen_icosphere(0)
    V, tris, lengths = ico.vertex_count, ico.triangles.copy(), _triples(ico)
    i, j, l = lengths[0]
    if case == "conflicting-length":
        lengths.append([j, i, 1.5 * l])
    elif case == "non-positive-length":
        lengths[0] = [i, j, 0.0]
    elif case == "non-finite-length":
        lengths[0] = [i, j, math.nan]
    elif case == "missing-length":
        del lengths[0]
    elif case == "length-on-a-non-edge":
        lengths += [[0, 3, 1.0], [1, 2, 1.0]]
    elif case == "length-out-of-range":
        lengths.append([0, 200, 1.0])
    elif case == "orientation-conflict":
        tris[5] = tris[5, ::-1]
    elif case == "open-boundary":
        tris = tris[np.arange(len(tris)) != 7]
    elif case == "repeated-vertex":
        tris[3, 1] = tris[3, 0]
    elif case == "isolated-vertex":
        V += 1
    elif case == "pinched-vertex":
        V, tris, lengths = _two_icosahedra(glue=True)
    elif case == "euler-characteristic":
        V, tris, lengths = _two_icosahedra(glue=False)
    elif case == "three-triangle-edge":
        tris = np.vstack([tris, tris[:1]])
    elif case == "disconnected":
        data = disjoint_sphere_and_torus()
        V, tris, lengths = data["vertices"], np.array(data["triangles"]), data["edge_lengths"]
    return V, tris, lengths


@pytest.mark.parametrize("case, message", [
    ("conflicting-length", "conflicting lengths for edge (0,1)"),
    ("non-positive-length", "non-positive length on edge (0,1)"),
    ("non-finite-length", "non-finite length on edge (0,1)"),
    ("missing-length", "missing edge length for edge (0,1) of triangle 1"),
    ("length-on-a-non-edge", "length given for (0,3), not an edge of any triangle"),
    ("length-out-of-range", "length given for (0,200), not an edge of any triangle"),
    ("orientation-conflict", "orientation conflict on edge (5,1) between triangles 1 and 5"),
    ("open-boundary", "open boundary at edge (10,11) (triangle 4)"),
    ("repeated-vertex", "degenerate triangle 3: repeated vertex"),
    ("isolated-vertex", "isolated vertex 12"),
    ("pinched-vertex", "vertex 0 link is not a single cycle"),
    ("euler-characteristic", "Euler characteristic 4 is not 2-2g for integer g >= 0"),
    ("disconnected", "mesh has 2 connected components, not one"),
    ("three-triangle-edge", "edge (0,11) lies in 3 triangles"),
])
def test_rejections_name_the_fault(case, message):
    V, tris, lengths = _rejection_case(case)
    with pytest.raises(MeshError) as exc:
        TriangleMesh(V, tris, lengths)
    assert str(exc.value) == message


def test_length_on_a_mesh_without_triangles_is_stray():
    with pytest.raises(MeshError) as exc:
        TriangleMesh(3, np.empty((0, 3), dtype=int), [[0, 1, 1.0]])
    assert str(exc.value) == "length given for (0,1), not an edge of any triangle"


def test_triangles_must_be_index_triples():
    with pytest.raises(MeshError) as exc:
        TriangleMesh(3, [[0, 1]], [])
    assert str(exc.value) == "triangles must be an (F, 3) index array"


def _sorted_first_lengths(vertex_count, rows):
    """Reference: rows sorted by (edge key, length), each key's first length."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 3)
    lo, hi = np.sort(rows[:, :2].astype(np.int64), axis=1).T
    key = lo * vertex_count + hi
    order = np.lexsort((rows[:, 2], key))
    return rows[order, 2][np.diff(key[order], prepend=-1) != 0]


def _load_donut(path):
    path.write_text(_donut_obj())
    return load_mesh(path)


def _doubled_rows_json(path, perturbed_first):
    """Icosphere 1 as intrinsic JSON, each edge given twice: once reversed at l(1 + 5e-13)."""
    m = gen_icosphere(1)
    rows = []
    for (i, j), l in zip(m.edges.tolist(), m.edge_lengths.tolist()):
        pair = [[i, j, l], [j, i, l * (1 + 5e-13)]]
        rows += pair[::-1] if perturbed_first else pair
    path.write_text(json.dumps({"vertices": m.vertex_count, "triangles": m.triangles.tolist(),
                                "edge_lengths": rows}))
    return load_mesh(path)


_LENGTH_CASES = {
    **{f"icosphere-{s}": lambda tmp, s=s: gen_icosphere(s) for s in range(5)},
    **{f"{name}-{n}": lambda tmp, basis=basis, n=n: gen_flat_torus(basis, n)
       for name, basis in (("square", SQUARE), ("equilateral", EQUILATERAL)) for n in (8, 16)},
    "equilateral-8x12": lambda tmp: gen_flat_torus(EQUILATERAL, 8, 12),
    "obj-donut": lambda tmp: _load_donut(tmp / "donut.obj"),
    "off-icosphere-2": lambda tmp: load_mesh(_write_off(gen_icosphere(2), tmp / "ico.off")),
    "json-doubled": lambda tmp: _doubled_rows_json(tmp / "a.json", perturbed_first=False),
    "json-doubled-perturbed-first":
        lambda tmp: _doubled_rows_json(tmp / "b.json", perturbed_first=True),
}


@pytest.mark.parametrize("case", list(_LENGTH_CASES))
def test_edge_lengths_are_the_least_given(monkeypatch, tmp_path, case):
    # each edge keeps the first of its rows sorted by length: the least one
    given = []
    init = TriangleMesh.__init__

    def record(self, vertex_count, triangles, edge_lengths):
        given.append(edge_lengths)
        init(self, vertex_count, triangles, edge_lengths)

    monkeypatch.setattr(TriangleMesh, "__init__", record)
    m = _LENGTH_CASES[case](tmp_path)
    want = _sorted_first_lengths(m.vertex_count, given[-1])
    assert want.tobytes() == m.edge_lengths.tobytes()
    if case.startswith("json"):
        assert np.array_equal(m.edge_lengths, gen_icosphere(1).edge_lengths)
    else:  # generators and embeddings measure each edge once, not once per corner pair
        assert np.shape(given[-1]) == (len(m.edges), 3)


@pytest.mark.parametrize("fixture", ["sphere2", "eq_torus16"])
def test_edge_table(request, fixture):
    m = request.getfixturevalue(fixture)
    opposite = np.sort(m.triangles[:, [[1, 2], [0, 2], [0, 1]]], axis=2)
    assert np.array_equal(m.edges[m.triangle_edges], opposite)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    assert np.array_equal(np.bincount(m.triangle_edges.ravel()), np.full(len(m.edges), 2))
    assert np.array_equal(m.triangle_edge_lengths, m.edge_lengths[m.triangle_edges])


def _icosphere_loop(subdivisions):
    """Reference: per-triangle subdivision with a midpoint dict."""
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = _ICO_FACES.tolist()
    for _ in range(subdivisions):
        midpoint = {}

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for i, j, k in faces:
            ij, jk, ki = mid(i, j), mid(j, k), mid(k, i)
            new_faces += [[i, ij, ki], [j, jk, ij], [k, ki, jk], [ij, jk, ki]]
        faces = new_faces
    return np.array(verts), np.array(faces)


def test_icosphere_matches_loop_reference():
    verts, faces = _icosphere_loop(3)
    m = gen_icosphere(3)
    assert np.array_equal(m.triangles, faces)
    assert np.abs(m.embedding - verts).max() <= 1e-15


def test_flat_torus_matches_loop_reference():
    nx, ny = 5, 4
    m = gen_flat_torus(EQUILATERAL, nx, ny)
    ex, ey = EQUILATERAL[0] / nx, EQUILATERAL[1] / ny
    lx, ly, ld = (float(np.linalg.norm(v)) for v in (ex, ey, ex + ey))
    vid = lambda i, j: (i % nx) * ny + (j % ny)
    tris, lengths = [], {}
    for i in range(nx):
        for j in range(ny):
            c00, c10, c01, c11 = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
            tris += [[c00, c10, c11], [c00, c11, c01]]
            for a, b, l in ((c00, c10, lx), (c00, c01, ly), (c10, c11, ly),
                            (c01, c11, lx), (c00, c11, ld)):
                lengths[(min(a, b), max(a, b))] = l
    assert np.array_equal(m.triangles, tris)
    assert np.array_equal(m.edges, sorted(lengths))
    assert np.array_equal(m.edge_lengths, [lengths[k] for k in sorted(lengths)])


# per SURFACES row: a spec with the generator call it names, and the size of a
# mesh whose uniform lambda1*A is within 1% of the row's closed form
_ROWS = {
    "icosphere": ("icosphere:2", lambda: gen_icosphere(2), 3),
    "flat-torus:square": ("flat-torus:square:6:7", lambda: gen_flat_torus(SQUARE, 6, 7), 24),
    "flat-torus:equilateral": ("flat-torus:equilateral:5",
                               lambda: gen_flat_torus(EQUILATERAL, 5, 5), 24),
}


@pytest.mark.parametrize("kind", list(SURFACES))
def test_spec_builds_the_generators_mesh(kind):
    spec, direct, _ = _ROWS[kind]
    got, want = mesh_from_spec(spec), direct()
    assert np.array_equal(got.triangles, want.triangles)
    assert np.array_equal(got.edges, want.edges)
    assert np.array_equal(got.edge_lengths, want.edge_lengths)


@pytest.mark.parametrize("kind", list(SURFACES))
def test_uniform_lambda1_matches_the_closed_form(kind):
    mesh = mesh_from_spec(f"{kind}:{_ROWS[kind][2]}")
    res = solve_pencil(assemble_mass(mesh, uniform_density(mesh)), k=1)
    target = SURFACES[kind].lambda1_area
    assert abs(res.lambda1 - target) <= 0.01 * target
