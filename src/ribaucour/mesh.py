"""Grid meshes of sampled surfaces and deterministic OBJ export.

A surface evaluated over a uniform (u, v) grid yields one candidate
vertex per node.  Nodes flagged degenerate are dropped (never filled or
interpolated), surviving vertices are re-indexed in row-major order, and
a quad is emitted only where all four corners of a grid cell survive.
The OBJ writer is byte-deterministic: fixed 9-significant-digit number
formatting, row-major ordering, no timestamps.  It formats each record
kind in one batched ``%`` operation rather than line by line.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SurfaceMesh", "mesh_from_grid", "mesh_from_fields", "export_obj"]


@dataclass(frozen=True)
class SurfaceMesh:
    """An indexed quad mesh over a rectangular sample grid.

    ``vertices`` and ``normals`` are (n, 3) arrays; ``quads`` is a
    (q, 4) array of 0-based vertex indices winding around each surviving
    grid cell; ``mask`` is the (nu, nv) boolean grid marking dropped
    (degenerate) nodes.
    """

    vertices: np.ndarray
    normals: np.ndarray
    quads: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        n = np.asarray(self.normals, dtype=float)
        q = np.asarray(self.quads, dtype=int)
        m = np.asarray(self.mask, dtype=bool)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        if n.shape != v.shape:
            raise ValueError("normals must match the vertex array shape")
        if q.size and (q.ndim != 2 or q.shape[1] != 4):
            raise ValueError("quads must be a (q, 4) index array")
        if m.ndim != 2:
            raise ValueError("mask must be the (nu, nv) sample grid")
        if v.shape[0] != int(m.size - np.count_nonzero(m)):
            raise ValueError("vertex count must equal unmasked node count")
        if q.size and (q.min() < 0 or q.max() >= v.shape[0]):
            raise ValueError("quad indices out of range")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(n))):
            raise ValueError("vertices and normals must be finite")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "quads", q.reshape(-1, 4))
        object.__setattr__(self, "mask", m)

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_quads(self) -> int:
        return int(self.quads.shape[0])


def mesh_from_grid(points, normals, valid=None) -> SurfaceMesh:
    """Index a (nu, nv, 3) point/normal grid into a :class:`SurfaceMesh`.

    ``valid`` marks usable nodes (default: all finite); quads keep the
    grid orientation (u increasing, then v).
    """
    P = np.asarray(points, dtype=float)
    N = np.asarray(normals, dtype=float)
    if P.ndim != 3 or P.shape[2] != 3 or N.shape != P.shape:
        raise ValueError("points and normals must both be (nu, nv, 3)")
    nu, nv = P.shape[:2]
    if valid is None:
        ok = np.all(np.isfinite(P), axis=-1) & np.all(np.isfinite(N), axis=-1)
    else:
        ok = (np.asarray(valid, dtype=bool)
              & np.all(np.isfinite(P), axis=-1)
              & np.all(np.isfinite(N), axis=-1))
    index = np.full((nu, nv), -1, dtype=int)
    index[ok] = np.arange(int(np.count_nonzero(ok)))
    cell_ok = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    a = index[:-1, :-1][cell_ok]
    b = index[1:, :-1][cell_ok]
    c = index[1:, 1:][cell_ok]
    d = index[:-1, 1:][cell_ok]
    quads = np.stack([a, b, c, d], axis=1) if a.size else np.empty((0, 4), int)
    return SurfaceMesh(vertices=P[ok], normals=N[ok], quads=quads, mask=~ok)


def mesh_from_fields(fields) -> SurfaceMesh:
    """Mesh the position/normal samples of an evaluated surface
    (anything exposing ``X``, ``N`` grids and a ``valid`` mask)."""
    return mesh_from_grid(fields.X, fields.N, np.asarray(fields.valid))


def export_obj(mesh: SurfaceMesh, path) -> None:
    """Write the mesh as Wavefront OBJ: ``v``/``vn`` records with nine
    significant digits and each quad split into two ``f`` triangles.
    Identical meshes produce byte-identical files.

    Each record kind is formatted by one ``%`` operation over all its
    numbers, which writes the same bytes as formatting record by record;
    adding 0.0 first turns -0 into 0.
    """
    nv, nt = mesh.n_vertices, 2 * mesh.n_quads
    tri = (mesh.quads + 1)[:, [0, 1, 2, 0, 2, 3]]
    text = "".join((
        "# surface mesh: %d vertices, %d faces\n" % (nv, nt),
        ("v %.9g %.9g %.9g\n" * nv)
        % tuple((mesh.vertices + 0.0).ravel().tolist()),
        ("vn %.9g %.9g %.9g\n" * nv)
        % tuple((mesh.normals + 0.0).ravel().tolist()),
        ("f %d %d %d\n" * nt) % tuple(tri.ravel().tolist()),
    ))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
