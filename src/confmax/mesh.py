"""Closed triangulated surfaces carried intrinsically (connectivity + edge lengths).

Embeddings are optional decoration: flat tori have none, and every downstream
assembly routine reads only the edge lengths.
"""
from __future__ import annotations

import inspect
import json
import math
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .fem import assemble_stiffness


class MeshError(ValueError):
    """Invalid mesh input: non-manifold, open, mis-oriented or degenerate."""


def triangle_areas(tri_lengths):
    """Areas for an (F, 3) array of per-triangle edge lengths.

    Heron's formula in Kahan's stable ordering; raises on triangle-inequality violations.
    """
    c, b, a = np.sort(np.asarray(tri_lengths, dtype=float), axis=1).T  # a >= b >= c
    bad = c - (a - b) <= 0
    if np.any(bad):
        raise MeshError(f"triangle inequality violated at triangle {int(np.argmax(bad))}")
    return 0.25 * np.sqrt((a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c)))


def _as_triangles(triangles, vertex_count):
    """Check an (F, 3) vertex index array against `vertex_count` and return it as int64."""
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must be an (F, 3) index array")
    if np.any(triangles < 0) or np.any(triangles >= vertex_count):
        raise MeshError("triangle vertex index out of range")
    return triangles


def _corner_pairs(triangles):
    """The 3F directed edges (i,j), (j,k), (k,i) of each triangle, as (tail, head)."""
    return triangles.ravel(), np.roll(triangles, -1, axis=1).ravel()


class TriangleMesh:
    """Immutable closed connected oriented 2-manifold triangulation with intrinsic metric.

    Attributes
    ----------
    vertex_count : int
    triangles : (F, 3) int array, consistently oriented
    edges : (E, 2) int array, i < j, in lexicographic order
    triangle_edges : (F, 3) int array, entry c the id in `edges` of the edge
        opposite corner c
    edge_lengths : (E,) float array
    triangle_edge_lengths : (F, 3) float array, edge_lengths[triangle_edges]
    areas : (F,) float array of triangle areas; area their sum
    vertex_areas : (V,) float array, a third of each incident triangle's area
    cotangents : (F, 3) float array, cotangent of the angle at each corner
    genus : int
    embedding : (V, 3) float array the lengths were measured on (from_embedding), or None

    All are set at construction. Three values are cached on the mesh, each built
    on first use: `element_slots`, linear in F; `stiffness`, its one
    StiffnessMatrix; and `collapse_net`, the centres, radii and ball incidences
    every collapse search reads, linear in V.
    """

    def __init__(self, vertex_count, triangles, edge_lengths):
        self.vertex_count = int(vertex_count)
        self.triangles = _as_triangles(triangles, self.vertex_count)
        self._build_edges(edge_lengths)
        self._build_geometry()  # raises on triangle-inequality violations
        self._validate_manifold()
        self.embedding = None

    @cached_property
    def element_slots(self):
        """(slots, indices, indptr): where each P1 element entry lands in CSR.

        indices and indptr are the CSR pattern of the vertex adjacency,
        diagonal included (V + 2E entries), and slots is an (F, 3, 3) array
        whose entry [f, a, b] is the position of entry (tri[f, a], tri[f, b])
        in that pattern. Every matrix assembled on the mesh shares this
        indices and indptr, so stiffness and mass are on one pattern by
        construction. Both arrays are read-only: one matrix sorting its
        indices in place would rewrite every other.
        """
        tri, V = self.triangles, self.vertex_count
        key = (tri[:, :, None] * V + tri[:, None, :]).ravel()
        entries, slots = np.unique(key, return_inverse=True)
        # scipy stores the pattern in its own index dtype; matrices built on
        # these arrays then keep them without a copy
        pattern = csr_matrix((np.zeros(len(entries)), entries % V,
                              np.searchsorted(entries, V * np.arange(V + 1))), shape=(V, V))
        for a in (pattern.indices, pattern.indptr):
            a.flags.writeable = False
        return slots.reshape(-1, 3, 3), pattern.indices, pattern.indptr

    @cached_property
    def stiffness(self):
        """The cotangent StiffnessMatrix, whose factor every pencil solve on the mesh shares."""
        return assemble_stiffness(self)

    @cached_property
    def collapse_net(self):
        """The CollapseNet whose two ball incidences bound every collapse search on the mesh."""
        from .maximizer import CollapseNet  # local import: maximizer depends on this module
        return CollapseNet.build(self)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_embedding(cls, vertices, triangles):
        """Build from 3D positions; edge lengths derived from the embedding."""
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError("embedding must be (V, 3)")
        triangles = _as_triangles(triangles, len(vertices))
        tail, head = _corner_pairs(triangles)
        # one row per edge: the first corner pair of each, in either direction
        _, first = np.unique(np.minimum(tail, head) * len(vertices) + np.maximum(tail, head),
                             return_index=True)
        tail, head = tail[first], head[first]
        lengths = np.linalg.norm(vertices[tail] - vertices[head], axis=1)
        mesh = cls(len(vertices), triangles, np.column_stack([tail, head, lengths]))
        mesh.embedding = vertices
        return mesh

    def _build_edges(self, edge_lengths):
        tris, V = self.triangles, self.vertex_count
        repeated = np.any(tris == np.roll(tris, 1, axis=1), axis=1)
        if np.any(repeated):
            raise MeshError(f"degenerate triangle {int(np.argmax(repeated))}: repeated vertex")
        # the edge table: entry c of a triangle is the edge opposite corner c
        opposite = np.sort(tris[:, [[1, 2], [0, 2], [0, 1]]], axis=2).reshape(-1, 2)
        edge_key, inverse = np.unique(opposite[:, 0] * V + opposite[:, 1], return_inverse=True)
        self.edges = np.stack(np.divmod(edge_key, V), axis=1)
        self.triangle_edges = inverse.reshape(-1, 3)

        rows = np.asarray(edge_lengths, dtype=float).reshape(-1, 3)
        lo, hi = np.sort(rows[:, :2].astype(np.int64), axis=1).T
        key, given = lo * V + hi, rows[:, 2]
        edge = np.searchsorted(edge_key, key)  # each row's edge id, if its key is there
        stray = (lo < 0) | (hi >= V) | (np.append(edge_key, -1)[edge] != key)
        if np.any(stray):
            g = int(np.argmax(stray))
            raise MeshError(f"length given for ({lo[g]},{hi[g]}), not an edge of any triangle")
        finite = np.isfinite(given)
        if not finite.all():
            i, j = divmod(key[~finite].min(), V)
            raise MeshError(f"non-finite length on edge ({i},{j})")
        # each edge keeps its least length, and any other length given for it
        # must agree with that one; an edge no row names keeps inf
        kept = np.full(len(edge_key), np.inf)
        np.minimum.at(kept, edge, given)
        close = np.abs(given - kept[edge]) <= 1e-12 * np.maximum(np.abs(given), np.abs(kept[edge]))
        bad = (kept <= 0) | (np.bincount(edge[~close], minlength=len(kept)) > 0)
        if np.any(bad):
            e = int(np.argmax(bad))
            i, j = self.edges[e]
            if kept[e] <= 0:
                raise MeshError(f"non-positive length on edge ({i},{j})")
            raise MeshError(f"conflicting lengths for edge ({i},{j})")
        missing = np.isinf(kept)[self.triangle_edges]
        if np.any(missing):
            t, c = divmod(int(np.argmax(missing)), 3)
            a, b = np.delete(tris[t], c)
            raise MeshError(f"missing edge length for edge ({a},{b}) of triangle {t}")
        self.edge_lengths = kept
        self.triangle_edge_lengths = self.edge_lengths[self.triangle_edges]

    def _validate_manifold(self):
        tris, V = self.triangles, self.vertex_count
        tail, head = _corner_pairs(tris)
        pair_edge = self.triangle_edges[:, [2, 0, 1]].ravel()  # edge of each corner pair
        incident = np.bincount(pair_edge)  # triangles at each edge
        odd = (incident != 2)[pair_edge]
        if np.any(odd):
            h = int(np.argmax(odd))
            a, b = self.edges[pair_edge[h]]
            if incident[pair_edge[h]] == 1:
                raise MeshError(f"open boundary at edge ({a},{b}) (triangle {h // 3})")
            raise MeshError(f"edge ({a},{b}) lies in {incident[pair_edge[h]]} triangles")
        # each edge's two pairs, the earlier first, run opposite ways on an oriented surface
        earlier, later = np.argsort(pair_edge, kind="stable").reshape(-1, 2).T
        clash = tail[earlier] == tail[later]
        if np.any(clash):
            e = int(np.argmin(np.where(clash, later, len(tail))))
            h = later[e]
            raise MeshError(f"orientation conflict on edge ({tail[h]},{head[h]}) between "
                            f"triangles {earlier[e] // 3} and {h // 3}")
        # vertex links must be single cycles, and the mesh one part. One search
        # covers two disjoint graphs: the corners, corner h (at tail[h]) joined
        # to the corner at the same vertex in the triangle across pair h, whose
        # components are the link cycles; and the vertices joined along edges,
        # whose components are the parts.
        twin = np.empty_like(pair_edge)
        twin[earlier], twin[later] = later, earlier
        across = twin - twin % 3 + (twin + 1) % 3
        n = len(tail)
        count, label = connected_components(coo_matrix(
            (np.ones(n + len(self.edges)),
             (np.concatenate([np.arange(n), n + self.edges[:, 0]]),
              np.concatenate([across, n + self.edges[:, 1]]))), shape=(n + V, n + V)))
        link_vertex = np.full(count, V)  # a part's label keeps V, so cycles[V] counts parts
        link_vertex[label[:n]] = tail
        cycles = np.bincount(link_vertex, minlength=V + 1)
        if np.any(cycles[:V] != 1):
            v = int(np.argmax(cycles[:V] != 1))
            if cycles[v] == 0:
                raise MeshError(f"isolated vertex {v}")
            raise MeshError(f"vertex {v} link is not a single cycle")
        chi = self.vertex_count - len(self.edges) + len(self.triangles)
        if chi % 2 != 0 or chi > 2:
            raise MeshError(f"Euler characteristic {chi} is not 2-2g for integer g >= 0")
        # checked last: the parts of a disconnected mesh can pass all of the above,
        # and its pencil then has one zero eigenvalue per part
        if cycles[V] > 1:
            raise MeshError(f"mesh has {cycles[V]} connected components, not one")
        self.genus = (2 - chi) // 2

    def _build_geometry(self):
        self.areas = triangle_areas(self.triangle_edge_lengths)
        # cot at corner c = (b^2 + c^2 - a^2) / (4A), a the opposite edge
        a2 = self.triangle_edge_lengths ** 2
        num = np.stack([a2[:, 1] + a2[:, 2] - a2[:, 0], a2[:, 0] + a2[:, 2] - a2[:, 1],
                        a2[:, 0] + a2[:, 1] - a2[:, 2]], axis=1)
        self.cotangents = num / (4.0 * self.areas[:, None])
        self.vertex_areas = np.bincount(self.triangles.ravel(), np.repeat(self.areas / 3.0, 3),
                                        minlength=self.vertex_count)
        self.area = float(self.areas.sum())


def mesh_stats(mesh):
    """Area, genus, edge-length range and triangle quality summary."""
    l = mesh.triangle_edge_lengths
    quality = 4.0 * math.sqrt(3.0) * mesh.areas / (l ** 2).sum(axis=1)
    return {
        "area": mesh.area,
        "genus": mesh.genus,
        "vertices": mesh.vertex_count,
        "triangles": len(mesh.triangles),
        "edge_length_min": float(mesh.edge_lengths.min()),
        "edge_length_max": float(mesh.edge_lengths.max()),
        "quality_min": float(quality.min()),
        "quality_mean": float(quality.mean()),
    }


# -- generators ----------------------------------------------------------------

_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
    [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
    [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
], dtype=float)
_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
], dtype=np.int64)


def gen_icosphere(subdivisions):
    """Unit-sphere mesh: icosahedron with `subdivisions` rounds of 1->4 splits."""
    if not 0 <= subdivisions <= 8:
        raise ValueError("subdivisions must be in [0, 8]")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES.copy()
    for _ in range(subdivisions):
        # one midpoint per edge, numbered by first appearance among the corner pairs
        tail, head = _corner_pairs(faces)
        V = len(verts)
        _, first, edge = np.unique(np.minimum(tail, head) * V + np.maximum(tail, head),
                                   return_index=True, return_inverse=True)
        new = np.sort(first)
        rank = np.searchsorted(new, first)
        m = verts[tail[new]] + verts[head[new]]
        verts = np.vstack([verts, m / np.linalg.norm(m, axis=1, keepdims=True)])
        (i, j, k), (ij, jk, ki) = faces.T, (V + rank[edge]).reshape(-1, 3).T
        faces = np.stack([i, ij, ki, j, jk, ij, k, ki, jk, ij, jk, ki], axis=1).reshape(-1, 3)
    return TriangleMesh.from_embedding(verts, faces)


def gen_flat_torus(basis, nx, ny=None):
    """Intrinsic flat torus R^2/Gamma on an nx x ny grid, two triangles per cell.

    `basis` is a 2x2 matrix whose rows are the lattice vectors; ny defaults to nx.
    """
    ny = nx if ny is None else ny
    basis = np.asarray(basis, dtype=float)
    if basis.shape != (2, 2):
        raise ValueError("basis must be a 2x2 matrix")
    if abs(np.linalg.det(basis)) < 1e-14:
        raise ValueError("singular lattice")
    if nx < 3 or ny < 3:
        raise ValueError("grid too coarse (need nx, ny >= 3)")
    ex = basis[0] / nx
    ey = basis[1] / ny
    lx = float(np.linalg.norm(ex))
    ly = float(np.linalg.norm(ey))
    ld = float(np.linalg.norm(ex + ey))
    # cell (i, j) has corners c00 = vertex (i, j), c10, c01, c11, indexed i * ny + j
    i, j = np.divmod(np.arange(nx * ny), ny)
    c00, c10 = i * ny + j, (i + 1) % nx * ny + j
    c01, c11 = i * ny + (j + 1) % ny, (i + 1) % nx * ny + (j + 1) % ny
    tris = np.stack([c00, c10, c11, c00, c11, c01], axis=1).reshape(-1, 3)
    ends = np.stack([c00, c10, c00, c01, c00, c11], axis=1).reshape(-1, 2)
    lengths = np.tile([lx, ly, ld], nx * ny)  # the cell's edges from c00: each edge once
    return TriangleMesh(nx * ny, tris, np.column_stack([ends, lengths]))


# -- the surface table: the one place a generator spec is defined ---------------

EQUILATERAL = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
SQUARE = np.array([[1.0, 0.0], [0.0, 1.0]])
EQUILATERAL.flags.writeable = SQUARE.flags.writeable = False


class Surface(NamedTuple):
    """A generated conformal class: one row of SURFACES."""
    grammar: str  # its spec with the size fields named, [...] optional
    build: Callable[..., TriangleMesh]  # the size fields, as ints, to the mesh
    lambda1_area: float  # closed-form Lambda1, the largest lambda1*A over the class
    formula: str  # lambda1_area written in closed form


# each row calls its generator by name, so a wrapper installed on one sees the call
SURFACES = {
    "icosphere": Surface("icosphere:S", lambda s: gen_icosphere(s),
                         8.0 * math.pi, "8pi"),  # Hersch 1970
    "flat-torus:square": Surface("flat-torus:square:NX[:NY]",
                                 lambda nx, ny=None: gen_flat_torus(SQUARE, nx, ny),
                                 4.0 * math.pi ** 2, "4pi^2"),
    "flat-torus:equilateral": Surface("flat-torus:equilateral:NX[:NY]",  # Nadirashvili 1996
                                      lambda nx, ny=None: gen_flat_torus(EQUILATERAL, nx, ny),
                                      8.0 * math.pi ** 2 / math.sqrt(3.0), "8pi^2/sqrt3"),
}


def mesh_from_spec(spec):
    """The mesh a generator spec names: a SURFACES key, then its size fields.

    Each size field is plain decimal digits. Any other spec is a MeshError that
    quotes it and lists each row's grammar.
    """
    for kind, row in SURFACES.items():
        sizes = spec.removeprefix(kind + ":").split(":")
        if spec.startswith(kind + ":") and all(s.isascii() and s.isdigit() for s in sizes):
            try:  # too many or too few size fields
                args = inspect.signature(row.build).bind(*map(int, sizes)).args
            except TypeError:
                break
            return row.build(*args)
    grammars = ", ".join(row.grammar for row in SURFACES.values())
    raise MeshError(f"bad generator {spec!r}: expected one of {grammars}, "
                    "each size plain decimal digits")


# -- file I/O --------------------------------------------------------------------

def _parse_off(text, path):
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise MeshError(f"{path}: missing OFF header")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        pos = 4  # skip edge count
        verts = np.array(tokens[pos:pos + 3 * nv], dtype=float).reshape(nv, 3)
        pos += 3 * nv
        faces = []
        for f in range(nf):
            n = int(tokens[pos])
            if n != 3:
                raise MeshError(f"{path}: face {f} has {n} vertices; triangles only")
            faces.append([int(t) for t in tokens[pos + 1:pos + 4]])
            pos += 1 + n
    except (ValueError, IndexError) as exc:
        raise MeshError(f"{path}: OFF parse failure: {exc}") from exc
    return verts, np.array(faces, dtype=np.int64)


def _parse_obj(text, path):
    verts, faces = [], []
    for ln, line in enumerate(text.splitlines(), start=1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "v":
            try:
                verts.append([float(x) for x in parts[1:4]])
            except ValueError as exc:
                raise MeshError(f"{path}:{ln}: bad vertex line") from exc
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MeshError(f"{path}:{ln}: face has {len(parts) - 1} vertices; triangles only")
            try:
                faces.append([int(p.split("/")[0]) - 1 for p in parts[1:]])
            except ValueError as exc:
                raise MeshError(f"{path}:{ln}: bad face line") from exc
    if not verts or not faces:
        raise MeshError(f"{path}: no geometry found")
    return np.array(verts, dtype=float), np.array(faces, dtype=np.int64)


def load_mesh(path):
    """Load OFF, OBJ or intrinsic-JSON, the format given by the file's suffix."""
    path = Path(path)
    if not path.exists():
        raise MeshError(f"no such file: {path}")
    suffix = path.suffix.lower()
    if suffix not in (".off", ".obj", ".json"):
        raise MeshError(f"cannot infer format from suffix of {path}")
    text = path.read_text()
    if suffix != ".json":
        parse = _parse_off if suffix == ".off" else _parse_obj
        return TriangleMesh.from_embedding(*parse(text, path))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeshError(f"{path}: JSON parse failure: {exc}") from exc
    if not isinstance(data, dict):
        raise MeshError(f"{path}: expected a JSON object")
    for key in ("vertices", "triangles", "edge_lengths"):
        if key not in data:
            raise MeshError(f"{path}: missing field '{key}'")
    count, tris, lengths = data["vertices"], data["triangles"], data["edge_lengths"]
    if type(count) is not int:
        raise MeshError(f"{path}: 'vertices' must be an integer vertex count")
    if not _triples(tris) or any(type(i) is not int for t in tris for i in t):
        raise MeshError(f"{path}: 'triangles' must be a list of integer triples")
    if not _triples(lengths):
        raise MeshError(f"{path}: 'edge_lengths' must be a list of [i, j, length] triples")
    for r, (i, j, _) in enumerate(lengths):
        if type(i) is not int or type(j) is not int:
            raise MeshError(f"{path}: 'edge_lengths' row {r}: endpoints {i}, {j} "
                            "are not integer vertex indices")
    return TriangleMesh(count, np.array(tris), lengths)


def _triples(rows):
    """True for a JSON list of 3-element lists."""
    return isinstance(rows, list) and all(isinstance(r, list) and len(r) == 3 for r in rows)


def save_intrinsic_json(mesh, path, extra=None):
    """Write the artifact's intrinsic-JSON format, with optional extra fields."""
    data = {
        "vertices": mesh.vertex_count,
        "triangles": mesh.triangles.tolist(),
        "edge_lengths": [[int(i), int(j), float(l)]
                         for (i, j), l in zip(mesh.edges, mesh.edge_lengths)],
    }
    if extra:
        data.update(extra)
    Path(path).write_text(json.dumps(data))
