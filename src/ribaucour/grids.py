"""Rectangular chart domains and sample grids, the row blocks that
every blocked stage of the package walks a grid in, and the scope that
releases a block's readings after their last reader."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = ["Domain"]

# samples per row block: bounds the scratch memory of every stage that
# runs block by block (the congruence marches and envelope, the pair
# commands)
_BLOCK = 8192


def _rows_per_block(row_len: int) -> int:
    """Whole rows of row_len samples in a block of at most ``_BLOCK``
    samples, and at least one row."""
    return max(1, _BLOCK // max(1, row_len))


def _row_blocks(n_rows: int, row_len: int):
    """Slices of consecutive rows covering n_rows rows of row_len
    samples, in blocks of :func:`_rows_per_block` rows."""
    step = _rows_per_block(row_len)
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


@contextmanager
def _released(*records):
    """Drops, on leaving, every reading of ``records`` first computed
    inside: the cached readings that a per-block record (a
    ``SurfaceFields`` or a ``MinimalChart``) keeps in its ``__dict__``.
    A blocked stage reads first what several of its steps read, then
    runs each check in a scope of its own, so that each array of a block
    lives until the last check that reads it and none is computed twice.
    """
    kept = [set(vars(r)) for r in records]
    yield
    for r, names in zip(records, kept):
        for name in vars(r).keys() - names:
            del vars(r)[name]


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle [u0, u1] x [v0, v1] in the chart plane."""

    u0: float
    u1: float
    v0: float
    v1: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.u0, self.u1, self.v0, self.v1])):
            raise ValueError(f"domain bounds must be finite, got {self}")
        if not (self.u1 > self.u0 and self.v1 > self.v0):
            raise ValueError(f"empty domain {self}")

    def spacing(self, nu: int, nv: int) -> tuple[float, float]:
        return (self.u1 - self.u0) / (nu - 1), (self.v1 - self.v0) / (nv - 1)

    def lines(self, nu: int, nv: int):
        """The u and v lines of an nu x nv grid; MemoryError beyond numpy's
        limit."""
        try:
            return (np.linspace(self.u0, self.u1, nu),
                    np.linspace(self.v0, self.v1, nv))
        except ValueError:  # a size beyond what numpy can index
            raise MemoryError(f"{nu:.3g} x {nv:.3g} samples exceed "
                              "numpy's limit")

    def mesh(self, nu: int, nv: int):
        """Return (U, V, Z) sample arrays of shape (nu, nv), row-major in u:
        ``U[i, j] = u_i``, ``Z = U + iV``."""
        if nu < 2 or nv < 2:
            raise ValueError("need at least 2 samples per direction")
        U, V = np.meshgrid(*self.lines(nu, nv), indexing="ij")
        return U, V, U + 1j * V

    @staticmethod
    def parse(text: str) -> "Domain":
        """Parse 'u0:u1:v0:v1'."""
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"domain must be u0:u1:v0:v1, got {text!r}")
        return Domain(*(float(p) for p in parts))
