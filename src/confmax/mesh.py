"""Closed triangulated surfaces carried intrinsically (connectivity + edge lengths).

Embeddings are optional decoration: flat tori have none, and every downstream
assembly routine reads only the edge lengths.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


class MeshError(ValueError):
    """Invalid mesh input: non-manifold, open, mis-oriented or degenerate."""


def _kahan_heron(a, b, c):
    """Triangle areas from edge lengths, Kahan's stable ordering.

    Expects a >= b >= c per row; raises on triangle-inequality violations.
    """
    bad = c - (a - b) <= 0
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise MeshError(f"triangle inequality violated at triangle {idx}")
    return 0.25 * np.sqrt((a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c)))


def triangle_areas(tri_lengths):
    """Areas for an (F, 3) array of per-triangle edge lengths."""
    s = np.sort(np.asarray(tri_lengths, dtype=float), axis=1)
    return _kahan_heron(s[:, 2], s[:, 1], s[:, 0])


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
    """Immutable closed oriented 2-manifold triangulation with intrinsic metric.

    Attributes
    ----------
    vertex_count : int
    triangles : (F, 3) int array, consistently oriented
    edges : (E, 2) int array, i < j, in lexicographic order
    triangle_edges : (F, 3) int array, entry c the id in `edges` of the edge
        opposite corner c
    edge_lengths : (E,) float array
    cotangents : (F, 3) float array, cotangent of the angle at each corner
    embedding : optional (V, 3) float array reproducing edge_lengths
    """

    def __init__(self, vertex_count, triangles, edge_lengths, embedding=None):
        self.vertex_count = int(vertex_count)
        self.triangles = _as_triangles(triangles, self.vertex_count)
        self._build_edges(edge_lengths)
        self._build_geometry()  # raises on triangle-inequality violations
        self._validate_manifold()
        self.embedding = None
        if embedding is not None:
            emb = np.asarray(embedding, dtype=float)
            if emb.shape != (self.vertex_count, 3):
                raise MeshError("embedding must be (V, 3)")
            self._check_embedding(emb)
            self.embedding = emb

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_embedding(cls, vertices, triangles):
        """Build from 3D positions; edge lengths derived from the embedding."""
        vertices = np.asarray(vertices, dtype=float)
        triangles = _as_triangles(triangles, len(vertices))
        tail, head = _corner_pairs(triangles)
        lengths = np.linalg.norm(vertices[tail] - vertices[head], axis=1)
        return cls(len(vertices), triangles, np.column_stack([tail, head, lengths]),
                   embedding=vertices)

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
        key = lo * V + hi
        stray = (lo < 0) | (hi >= V) | ~np.isin(key, edge_key)
        if np.any(stray):
            g = int(np.argmax(stray))
            raise MeshError(f"length given for ({lo[g]},{hi[g]}), not an edge of any triangle")
        # sorted by (edge, length): each edge keeps its first length, and any
        # other length given for it must agree with that one
        order = np.lexsort((rows[:, 2], key))
        key, given = key[order], rows[order, 2]
        first = np.diff(key, prepend=-1) != 0
        kept = given[first][np.cumsum(first) - 1]
        close = np.abs(given - kept) <= 1e-12 * np.maximum(np.abs(given), np.abs(kept))
        bad = np.where(first, given <= 0, ~close)
        if np.any(bad):
            g = int(np.argmax(bad))
            i, j = divmod(key[g], V)
            if first[g]:
                raise MeshError(f"non-positive length on edge ({i},{j})")
            raise MeshError(f"conflicting lengths for edge ({i},{j})")
        missing = ~np.isin(edge_key, key)[self.triangle_edges]
        if np.any(missing):
            t, c = divmod(int(np.argmax(missing)), 3)
            a, b = np.delete(tris[t], c)
            raise MeshError(f"missing edge length for edge ({a},{b}) of triangle {t}")
        self.edge_lengths = given[first]
        self.triangle_edge_lengths = self.edge_lengths[self.triangle_edges]

    def _validate_manifold(self):
        tris, V = self.triangles, self.vertex_count
        tail, head = _corner_pairs(tris)
        directed, first, seen = np.unique(tail * V + head, return_index=True,
                                          return_inverse=True)
        repeat = first[seen] != np.arange(len(tail))
        if np.any(repeat):
            h = int(np.argmax(repeat))
            raise MeshError(
                f"orientation conflict on edge ({tail[h]},{head[h]}) between triangles "
                f"{first[seen[h]] // 3} and {h // 3}")
        # a third triangle at an edge would repeat one of its directed pairs, so
        # past the orientation check an edge lies in two triangles, or in one
        pair_edge = self.triangle_edges[:, [2, 0, 1]].ravel()  # edge of each corner pair
        open_pair = (np.bincount(pair_edge) == 1)[pair_edge]
        if np.any(open_pair):
            h = int(np.argmax(open_pair))
            a, b = self.edges[pair_edge[h]]
            raise MeshError(f"open boundary at edge ({a},{b}) (triangle {h // 3})")
        # vertex links must be single cycles. Corner h (at tail[h]) is joined to
        # the corner at the same vertex in the triangle across pair h, so each
        # link cycle is one connected component of the corners.
        twin = first[np.searchsorted(directed, head * V + tail)]
        across = twin - twin % 3 + (twin + 1) % 3
        n = len(tail)
        count, label = connected_components(
            coo_matrix((np.ones(n), (np.arange(n), across)), shape=(n, n)))
        link_vertex = np.empty(count, dtype=np.int64)
        link_vertex[label] = tail
        cycles = np.bincount(link_vertex, minlength=V)
        if np.any(cycles != 1):
            v = int(np.argmax(cycles != 1))
            if cycles[v] == 0:
                raise MeshError(f"isolated vertex {v}")
            raise MeshError(f"vertex {v} link is not a single cycle")
        chi = self.vertex_count - len(self.edges) + len(self.triangles)
        if chi % 2 != 0 or chi > 2:
            raise MeshError(f"Euler characteristic {chi} is not 2-2g for integer g >= 0")
        self.genus = (2 - chi) // 2

    def _build_geometry(self):
        self.areas = triangle_areas(self.triangle_edge_lengths)
        # cot at corner c = (b^2 + c^2 - a^2) / (4A), a the opposite edge
        a2 = self.triangle_edge_lengths ** 2
        num = np.stack([a2[:, 1] + a2[:, 2] - a2[:, 0], a2[:, 0] + a2[:, 2] - a2[:, 1],
                        a2[:, 0] + a2[:, 1] - a2[:, 2]], axis=1)
        self.cotangents = num / (4.0 * self.areas[:, None])
        va = np.zeros(self.vertex_count)
        np.add.at(va, self.triangles.ravel(), np.repeat(self.areas / 3.0, 3))
        self.vertex_areas = va
        self.area = float(self.areas.sum())

    def _check_embedding(self, emb):
        d = np.linalg.norm(emb[self.edges[:, 0]] - emb[self.edges[:, 1]], axis=1)
        rel = np.abs(d - self.edge_lengths) / self.edge_lengths
        if np.any(rel >= 1e-12):
            e = int(np.argmax(rel))
            raise MeshError(
                f"embedding does not reproduce stored length on edge {tuple(self.edges[e])}")


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


def gen_flat_torus(basis, nx, ny):
    """Intrinsic flat torus R^2/Gamma on an nx x ny grid, two triangles per cell.

    `basis` is a 2x2 matrix whose rows are the lattice vectors.
    """
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
    tail, head = _corner_pairs(tris)
    lengths = np.tile([lx, ly, ld, ld, lx, ly], nx * ny)
    return TriangleMesh(nx * ny, tris, np.column_stack([tail, head, lengths]))


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
    for key in ("vertices", "triangles", "edge_lengths"):
        if key not in data:
            raise MeshError(f"{path}: missing field '{key}'")
    return TriangleMesh(data["vertices"], np.array(data["triangles"]),
                        [(i, j, l) for i, j, l in data["edge_lengths"]])


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
