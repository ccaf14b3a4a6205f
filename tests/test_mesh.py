import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromap.mesh import (
    MeshError,
    MeshPlacement,
    compress,
    mesh_loose_area,
    mesh_strict_area,
    mesh_strict_square,
    place,
)


def test_strict_area_cases():
    assert mesh_strict_area(30) == (5, 6)
    assert mesh_strict_area(1) == (1, 1)
    assert mesh_strict_area(36) == (6, 6)
    assert mesh_strict_area(31) == (1, 31)  # prime stays a strip


def test_loose_area_cases():
    assert mesh_loose_area(31) == (4, 8)
    assert mesh_loose_area(30) == (5, 6)
    assert mesh_loose_area(2) == (1, 2)
    assert mesh_loose_area(5) == (2, 3)  # 5 -> strip -> pad to 6


def test_strict_square_cases():
    assert mesh_strict_square(26) == (5, 6)
    shape = mesh_strict_square(26)
    assert shape[0] * shape[1] - 26 == 4
    assert mesh_strict_square(25) == (5, 5)
    assert mesh_strict_square(2) == (1, 2)


def test_compress_dispatch_and_unknown_scheme():
    assert compress(30, "strict-area") == (5, 6)
    assert compress(31, "loose-area") == (4, 8)
    assert compress(26, "strict-square") == (5, 6)
    with pytest.raises(MeshError):
        compress(4, "round")


def brute_force_min_sum_pair(n):
    best = None
    for a in range(1, n + 1):
        if n % a == 0:
            b = n // a
            if a <= b and (best is None or a + b < best[0] + best[1]):
                best = (a, b)
    return best


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=3000))
def test_strict_area_matches_brute_force(n):
    assert mesh_strict_area(n) == brute_force_min_sum_pair(n)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=3000))
def test_scheme_capacity_invariants(n):
    r, c = mesh_strict_area(n)
    assert r * c == n and r <= c
    r, c = mesh_loose_area(n)
    assert r * c >= n
    assert r > 1 or c <= 4
    r, c = mesh_strict_square(n)
    assert r * c >= n
    assert abs(r - round(math.sqrt(n))) <= max(0, r - 1) or r * c >= n


def hop_count(p, a, b):
    """Manhattan distance between the routers of cores a and b."""
    (r0, c0), (r1, c1) = p.coords[a], p.coords[b]
    return abs(r0 - r1) + abs(c0 - c1)


def unused_slots(p):
    """Mesh slots that hold no core."""
    taken = set(p.coords)
    return sum((r, c) not in taken for r in range(p.rows) for c in range(p.cols))


def test_serpentine_2x2():
    p = place(4, (2, 2))
    assert p.coords == ((0, 0), (0, 1), (1, 1), (1, 0))


def test_serpentine_chain_hops():
    p = place(6, (1, 6))
    assert sum(hop_count(p, i, i + 1) for i in range(5)) == 5
    p = place(30, (5, 6))
    assert sum(hop_count(p, i, i + 1) for i in range(29)) == 29


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=400),
       scheme=st.sampled_from(["strict-area", "loose-area", "strict-square"]))
def test_serpentine_consecutive_adjacent(n, scheme):
    p = place(n, compress(n, scheme))
    for i in range(n - 1):
        assert hop_count(p, i, i + 1) == 1
    assert unused_slots(p) == p.rows * p.cols - n


def test_place_too_small_rejected():
    with pytest.raises(MeshError):
        place(5, (2, 2))


def test_placement_validation():
    with pytest.raises(MeshError):
        MeshPlacement(rows=2, cols=2, coords=((0, 0), (0, 0)))
    with pytest.raises(MeshError):
        MeshPlacement(rows=2, cols=2, coords=((0, 5),))


def test_strict_area_exhaustive_optimal_small():
    # the acceptance gate runs this to 10_000; keep a quick version here
    for n in range(1, 2000):
        r, c = mesh_strict_area(n)
        assert r * c == n
        for a in range(1, math.isqrt(n) + 1):
            if n % a == 0:
                assert r + c <= a + n // a
