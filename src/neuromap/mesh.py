"""Mesh-shape compression and serpentine core placement.

Three compression schemes turn a logical core count into a 2D mesh shape:
strict-area (exact factor pair with minimal perimeter), loose-area (pad the
count until the shape is not a long strip), strict-square (near-square with
unused slots allowed). Placement walks core ids boustrophedon so consecutive
pipeline stages sit on adjacent routers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_STRIP_DEFAULT = 4


class MeshError(ValueError):
    """Raised for impossible shapes or out-of-range placements."""


def mesh_strict_area(n_cores: int) -> tuple[int, int]:
    """Factor pair (rows, cols), rows <= cols, rows*cols == n, minimal rows+cols."""
    if n_cores < 1:
        raise MeshError("n_cores must be >= 1")
    for a in range(math.isqrt(n_cores), 0, -1):
        if n_cores % a == 0:
            return (a, n_cores // a)
    raise AssertionError("unreachable: 1 divides everything")


def mesh_loose_area(n_cores: int) -> tuple[int, int]:
    """strict-area, but pad the core count upward while the result is a
    1 x n strip longer than MAX_STRIP_DEFAULT."""
    n = n_cores
    while True:
        rows, cols = mesh_strict_area(n)
        if rows > 1 or cols <= MAX_STRIP_DEFAULT:
            return (rows, cols)
        n += 1


def mesh_strict_square(n_cores: int) -> tuple[int, int]:
    """rows = round(sqrt n), cols = ceil(n / rows); slots may go unused."""
    if n_cores < 1:
        raise MeshError("n_cores must be >= 1")
    rows = round(math.sqrt(n_cores))
    rows = max(rows, 1)
    cols = -(-n_cores // rows)
    return (min(rows, cols), max(rows, cols))


SHAPES = {"strict-area": mesh_strict_area, "loose-area": mesh_loose_area,
          "strict-square": mesh_strict_square}
SCHEMES = tuple(SHAPES)


def compress(n_cores: int, scheme: str) -> tuple[int, int]:
    if scheme not in SHAPES:
        raise MeshError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    return SHAPES[scheme](n_cores)


@dataclass(frozen=True)
class MeshPlacement:
    rows: int
    cols: int
    coords: tuple[tuple[int, int], ...]  # indexed by core_id -> (row, col)

    @property
    def n_cores(self) -> int:
        return len(self.coords)

    def __post_init__(self):
        if self.rows * self.cols < len(self.coords):
            raise MeshError(
                f"shape {self.rows}x{self.cols} holds fewer than "
                f"{len(self.coords)} cores")
        seen = set()
        for (r, c) in self.coords:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise MeshError(f"coordinate ({r},{c}) outside {self.rows}x{self.cols}")
            if (r, c) in seen:
                raise MeshError(f"coordinate ({r},{c}) assigned twice")
            seen.add((r, c))


def place(n_cores: int, shape: tuple[int, int]) -> MeshPlacement:
    """Serpentine placement: even rows left-to-right, odd rows right-to-left.

    Consecutive core ids are always Manhattan-distance 1 apart.
    """
    rows, cols = shape
    if rows * cols < n_cores:
        raise MeshError(f"shape {rows}x{cols} too small for {n_cores} cores")
    coords = []
    for i in range(n_cores):
        r, k = divmod(i, cols)
        c = k if r % 2 == 0 else cols - 1 - k
        coords.append((r, c))
    return MeshPlacement(rows=rows, cols=cols, coords=tuple(coords))

