"""Grid meshes of sampled surfaces and deterministic OBJ export.

A surface evaluated over a uniform (u, v) grid yields one candidate
vertex per node.  Nodes flagged degenerate are dropped (never filled or
interpolated), surviving vertices are re-indexed in row-major order, and
a quad is emitted only where all four corners of a grid cell survive.
The OBJ writer is byte-deterministic: fixed 9-significant-digit number
formatting, row-major ordering, no timestamps.  It writes exactly the
bytes of ``"%.9g"`` and ``"%d"`` formatting, but builds them with numpy,
a fixed number of records at a time:

* a coordinate x gets a fixed slot of bytes.  Its decimal exponent e
  comes from log10, and its nine significant digits m = round(|x|
  10^(8-e)) from one correctly rounded product with an exact power of
  ten; e moves by one where m falls outside [1e8, 1e9).  Positions that
  ``%g`` leaves out (no sign, no leading "0.000", trailing zeros of the
  fraction, a bare ".") hold a pad byte, which one ``bytes.translate``
  pass removes from each chunk's records;
* the product can round the last digit the other way only where its
  fraction lies within 1e-6 of 1/2, so such elements, those that
  ``%g`` writes in exponent notation (e < -4 or e >= 9: subnormals,
  huge values) and any left outside [1e8, 1e9) are formatted by
  ``"%.9g" % (x + 0.0)`` itself, one element at a time;
* face indices are gathered from a table of the digits of 0..n built
  once per file.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SurfaceMesh", "mesh_from_grid", "mesh_from_fields", "export_obj"]

# OBJ records formatted per numpy pass; bounds the writer's scratch memory
_CHUNK = 4096
_PAD = b"\0"                          # marks an unused byte; never written
_SLOT = 23                            # bytes per number, see _float_slots
_POW10 = 10.0 ** np.arange(23)        # exact doubles
_TIE = 0.5 - 1e-6                     # |y - round(y)| this large may flip
_DIGIT = np.arange(9, dtype=np.int8)[:, None]
_LEAD = np.array([48, 46, 48, 48, 48], np.uint8)[:, None]     # "0.000"
_LEAD_BELOW = np.array([0, 0, -1, -2, -3], np.int8)[:, None]  # used if e <


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
    ok = np.ones((nu, nv), bool)
    if valid is not None:
        ok &= np.asarray(valid, dtype=bool)
    # the six component columns one by one: a reduction over the axis of
    # length 3 is several times slower
    for A in (P, N):
        for k in range(3):
            ok &= np.isfinite(A[..., k])
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


def _float_slots(x, out) -> None:
    """Write ``"%.9g" % (x + 0.0)`` for each element of the 1-D float
    array ``x`` into the columns of the (_SLOT, n) uint8 array ``out``.

    The rows of a column are the sign, "0", ".", three zeros, then the
    nine digits d0..d8 of m with a "." after each of d0..d7.  Every
    position the number does not use holds ``_PAD``.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))            # -inf at 0
    np.clip(e, -6, 8, out=e)
    y = a * _POW10.take((8 - e).astype(np.intp))
    m = np.rint(y)
    # y is within half an ulp (< 6e-8) of |x| 10^(8-e): m is the
    # correctly rounded significand unless y's fraction is close to 1/2
    exact = np.abs(y - m) < _TIE
    off = np.flatnonzero((m < 1e8) | (m >= 1e9))
    if off.size:
        # log10 one off, rounding carried to 1e9, zero, or |x| outside
        # the clipped range: move e by one and scale again
        ao = a[off]
        eo = e[off] + np.where(m[off] < 1e8, -1.0, 1.0)
        yo = ao * _POW10.take(np.clip(8 - eo, 0, 22).astype(np.intp))
        mo = np.rint(yo)
        zero = ao == 0.0
        ok = exact[off] & (np.abs(yo - mo) < _TIE) & (mo >= 1e8) & (mo < 1e9)
        e[off] = np.where(zero, 0.0, eo)
        m[off] = np.where(ok, mo, 0.0)       # 0 prints as "0"
        exact[off] = ok | zero
    exact &= (e >= -4) & (e <= 8)            # %g's fixed-point range
    e = e.astype(np.int8)
    q = m.astype(np.uint32)
    digits = out[6::2]
    for k in range(8, 0, -1):
        r = q // 10
        digits[k] = q - 10 * r
        q = r
    digits[0] = q
    # tail[k]: digits k..8 are all zero
    tail = np.empty(digits.shape, bool)
    np.equal(digits[8], 0, out=tail[8])
    for k in range(7, -1, -1):
        np.equal(digits[k], 0, out=tail[k])
        tail[k] &= tail[k + 1]
    digits += 48
    digits *= ~(tail & (_DIGIT > e))         # trailing zeros of the fraction
    dots = out[7::2]
    dots[...] = (_DIGIT[:8] == e) & ~tail[1:]   # no "." without a fraction
    dots *= 46
    out[0] = x < 0.0                         # -0.0 prints as "0"
    out[0] *= 45
    out[1:6] = e < _LEAD_BELOW               # "0." and e's leading zeros
    out[1:6] *= _LEAD
    slow = np.flatnonzero(~exact)
    if slow.size:
        text = b"".join((b"%.9g" % (v + 0.0)).ljust(_SLOT, _PAD)
                        for v in x[slow].tolist())
        out[:, slow] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT).T


def _vertex_records(tag: bytes, xyz) -> bytes:
    """The ``v``/``vn`` records of an (n, 3) block of coordinates."""
    n = xyz.shape[0]
    # one column per number: the tag (first number of a record only),
    # the number's slot, and the space or newline after it
    rec = np.empty((3 + _SLOT + 1, n, 3), np.uint8)
    rec[:3] = _PAD[0]
    rec[:len(tag), :, 0] = np.frombuffer(tag, np.uint8)[:, None]
    rec[-1] = 32
    rec[-1, :, 2] = 10
    _float_slots(xyz.ravel(), rec[3:-1].reshape(_SLOT, 3 * n))
    return rec.reshape(len(rec), 3 * n).T.tobytes().translate(None, _PAD)


def _index_table(n: int) -> np.ndarray:
    """One item per index 0..n: a space and the decimal digits, leading
    zeros and the unused tail as ``_PAD``, in a void item of a multiple
    of 8 bytes, which ``take`` gathers whole."""
    width = len(str(n))
    i = np.arange(n + 1, dtype=np.uint64)
    table = np.zeros((n + 1, 8 * (width // 8 + 1)), np.uint8)
    table[:, 0] = 32
    q = i
    for col in range(width, 0, -1):
        r = q // 10
        table[:, col] = (q - 10 * r + 48) * ((i >= 10 ** (width - col))
                                             | (col == width))
        q = r
    return table.view(np.dtype((np.void, table.shape[1]))).ravel()


def _face_records(table: np.ndarray, quads) -> bytes:
    """The two ``f`` records of each quad of a (q, 4) block of 1-based
    indices."""
    tri = quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
    rec = np.empty((tri.shape[0], 3 * table.itemsize + 2), np.uint8)
    rec[:, 0] = 102
    rec[:, 1:-1] = table.take(tri).view(np.uint8).reshape(tri.shape[0], -1)
    rec[:, -1] = 10
    return rec.tobytes().translate(None, _PAD)


def export_obj(mesh: SurfaceMesh, path) -> None:
    """Write the mesh as Wavefront OBJ: ``v``/``vn`` records with nine
    significant digits and each quad split into two ``f`` triangles.
    Identical meshes produce byte-identical files.

    The bytes are those of formatting record by record with
    ``"%.9g" % (x + 0.0)`` (so -0 prints as 0) and ``"%d"``.  They are
    built with numpy, ``_CHUNK`` records at a time, exactly: elements
    whose rounding the scaled product cannot settle, and those that
    ``%g`` writes in exponent notation, are formatted by ``%`` itself
    (see the module docstring).
    """
    nv, nq = mesh.n_vertices, mesh.n_quads
    with open(path, "wb") as fh:
        fh.write(b"# surface mesh: %d vertices, %d faces\n" % (nv, 2 * nq))
        for tag, xyz in ((b"v ", mesh.vertices), (b"vn ", mesh.normals)):
            for s in range(0, nv, _CHUNK):
                fh.write(_vertex_records(tag, xyz[s:s + _CHUNK]))
        if nq:
            table = _index_table(nv)
            step = _CHUNK // 2                # two records per quad
            for s in range(0, nq, step):
                fh.write(_face_records(table, mesh.quads[s:s + step] + 1))
