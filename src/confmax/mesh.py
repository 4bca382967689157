"""Closed triangulated surfaces carried intrinsically (connectivity + edge lengths).

Embeddings are optional decoration: flat tori have none, and every downstream
assembly routine reads only the edge lengths.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


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


class TriangleMesh:
    """Immutable closed oriented 2-manifold triangulation with intrinsic metric.

    Attributes
    ----------
    vertex_count : int
    triangles : (F, 3) int array, consistently oriented
    edges : (E, 2) int array, i < j
    edge_lengths : (E,) float array
    cotangents : (F, 3) float array, cotangent of the angle at each corner
    embedding : optional (V, 3) float array reproducing edge_lengths
    """

    def __init__(self, vertex_count, triangles, edge_lengths, embedding=None):
        self.vertex_count = int(vertex_count)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (F, 3) index array")
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
        triangles = np.asarray(triangles, dtype=np.int64)
        lengths = {}
        for t, (i, j, k) in enumerate(triangles):
            for a, b in ((i, j), (j, k), (k, i)):
                key = (min(a, b), max(a, b))
                if key not in lengths:
                    lengths[key] = float(np.linalg.norm(vertices[a] - vertices[b]))
        return cls(len(vertices), triangles, lengths, embedding=vertices)

    def _build_edges(self, edge_lengths):
        tris = self.triangles
        if np.any(tris < 0) or np.any(tris >= self.vertex_count):
            raise MeshError("triangle vertex index out of range")
        for t in range(len(tris)):
            if len(set(tris[t])) != 3:
                raise MeshError(f"degenerate triangle {t}: repeated vertex")
        if isinstance(edge_lengths, dict):
            items = [(min(i, j), max(i, j), l) for (i, j), l in edge_lengths.items()]
        else:
            items = [(min(int(i), int(j)), max(int(i), int(j)), float(l))
                     for i, j, l in edge_lengths]
        index = {}
        pairs, lens = [], []
        for i, j, l in sorted(items):
            if (i, j) in index:
                if not math.isclose(lens[index[(i, j)]], l, rel_tol=1e-12):
                    raise MeshError(f"conflicting lengths for edge ({i},{j})")
                continue
            if l <= 0:
                raise MeshError(f"non-positive length on edge ({i},{j})")
            index[(i, j)] = len(pairs)
            pairs.append((i, j))
            lens.append(float(l))
        self.edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        self.edge_lengths = np.array(lens, dtype=float)
        # per-triangle edge lengths, entry c = length of edge opposite corner c
        F = len(self.triangles)
        tl = np.empty((F, 3))
        for t, (i, j, k) in enumerate(self.triangles):
            for c, (a, b) in enumerate(((j, k), (i, k), (i, j))):
                key = (min(a, b), max(a, b))
                if key not in index:
                    raise MeshError(f"missing edge length for edge ({a},{b}) of triangle {t}")
                tl[t, c] = self.edge_lengths[index[key]]
        self.triangle_edge_lengths = tl

    def _validate_manifold(self):
        directed = {}
        undirected = {}
        for t, (i, j, k) in enumerate(self.triangles):
            for a, b in ((i, j), (j, k), (k, i)):
                if (a, b) in directed:
                    raise MeshError(
                        f"orientation conflict on edge ({a},{b}) between triangles "
                        f"{directed[(a, b)]} and {t}")
                directed[(a, b)] = t
                undirected.setdefault((min(a, b), max(a, b)), []).append(t)
        for (a, b), ts in undirected.items():
            if len(ts) == 1:
                raise MeshError(f"open boundary at edge ({a},{b}) (triangle {ts[0]})")
            if len(ts) > 2:
                raise MeshError(f"non-manifold edge ({a},{b}) shared by triangles {ts}")
        # vertex links must be single cycles
        link = [dict() for _ in range(self.vertex_count)]
        for i, j, k in self.triangles:
            link[i][j] = k
            link[j][k] = i
            link[k][i] = j
        for v, nxt in enumerate(link):
            if not nxt:
                raise MeshError(f"isolated vertex {v}")
            start = next(iter(nxt))
            cur, seen = start, 0
            while True:
                cur = nxt.get(cur)
                seen += 1
                if cur is None:
                    raise MeshError(f"broken link cycle at vertex {v}")
                if cur == start:
                    break
                if seen > len(nxt):
                    raise MeshError(f"vertex {v} link is not a single cycle")
            if seen != len(nxt):
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
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = _ICO_FACES.copy()
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
        faces = np.array(new_faces, dtype=np.int64)
    return TriangleMesh.from_embedding(np.array(verts), faces)


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

    def vid(i, j):
        return (i % nx) * ny + (j % ny)

    tris = []
    lengths = {}

    def add_edge(a, b, l):
        key = (min(a, b), max(a, b))
        lengths[key] = l

    for i in range(nx):
        for j in range(ny):
            c00, c10 = vid(i, j), vid(i + 1, j)
            c01, c11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append([c00, c10, c11])
            tris.append([c00, c11, c01])
            add_edge(c00, c10, lx)
            add_edge(c00, c01, ly)
            add_edge(c10, c11, ly)
            add_edge(c01, c11, lx)
            add_edge(c00, c11, ld)
    return TriangleMesh(nx * ny, np.array(tris, dtype=np.int64), lengths)


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


def load_mesh(path, format=None):
    """Load OFF, OBJ or intrinsic-JSON. Format inferred from suffix if omitted."""
    path = Path(path)
    if not path.exists():
        raise MeshError(f"no such file: {path}")
    if format is None:
        format = {".off": "OFF", ".obj": "OBJ", ".json": "intrinsic-JSON"}.get(
            path.suffix.lower())
        if format is None:
            raise MeshError(f"cannot infer format from suffix of {path}")
    text = path.read_text()
    if format == "OFF":
        verts, faces = _parse_off(text, path)
        return TriangleMesh.from_embedding(verts, faces)
    if format == "OBJ":
        verts, faces = _parse_obj(text, path)
        return TriangleMesh.from_embedding(verts, faces)
    if format == "intrinsic-JSON":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MeshError(f"{path}: JSON parse failure: {exc}") from exc
        for key in ("vertices", "triangles", "edge_lengths"):
            if key not in data:
                raise MeshError(f"{path}: missing field '{key}'")
        return TriangleMesh(data["vertices"], np.array(data["triangles"]),
                            [(i, j, l) for i, j, l in data["edge_lengths"]])
    raise MeshError(f"unknown format {format!r}")


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
