"""Chain complexes, their exact Betti numbers, and order complexes of posets.

A `ChainComplex` holds sparse integer boundary matrices. A component of
Hom(G, H) takes its Betti numbers from an acyclic matching on its cells
(`hom_poset.component_summary`) and builds one
(`hom_poset.cellular_chain_complex`) only when the matching leaves a
critical cell above dimension 1. The order complex of a finite poset,
whose simplices are the chains of the poset, is the barycentric subdivision
of the same space, so both must give the same Betti numbers; the tests use
it as an independent oracle (`order_complex` and `betti_numbers` in
tests/oracles.py), and the benchmark's traced pass times it. The tests
also check that boundaries compose to zero and take Euler characteristics
themselves. Betti numbers
come from ranks over the rationals, every boundary's by one echelon pass
over its columns (`exact_rank`) in exact integer arithmetic: columns are
combined fraction-free and rescaled by their gcd, so no floating point is
involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantViolation
from .graphs import DEFAULT_CAP, _over_cap, _require_cap


@dataclass(frozen=True)
class OrderComplex:
    """An abstract simplicial complex, graded by dimension.

    simplices[d] lists the d-simplices as strictly increasing vertex tuples,
    each list sorted. The complex must be closed under taking faces.
    """

    simplices: tuple

    def __post_init__(self):
        by_dim = self.simplices
        for d, level in enumerate(by_dim):
            previous = set(by_dim[d - 1]) if d > 0 else None
            for s in level:
                if len(s) != d + 1 or list(s) != sorted(set(s)):
                    raise InvariantViolation(f"{s} is not a strict {d}-simplex")
                if d > 0:
                    for i in range(d + 1):
                        if s[:i] + s[i + 1 :] not in previous:
                            raise InvariantViolation(f"face of {s} missing")
            if list(level) != sorted(level):
                raise InvariantViolation("simplex lists must be sorted")

    @property
    def dim(self):
        return len(self.simplices) - 1

    def counts(self):
        return tuple(len(level) for level in self.simplices)


def complex_from_chains(n_vertices, greater, cap=DEFAULT_CAP):
    """Order complex of a poset given by strict comparability lists.

    greater[i] lists the j with i strictly below j. Chains are grown along
    the poset order, so each chain arises exactly once; a chain is recorded
    as its sorted vertex tuple because poset order need not respect the
    numbering of the elements. More than cap chains raises ExplosionGuard;
    math.inf means no cap.
    """
    _require_cap(cap)
    levels = []
    frontier = [(i,) for i in range(n_vertices)]
    total = 0
    while frontier:
        total += len(frontier)
        if total > cap:
            raise _over_cap("order complex chains", total, cap)
        levels.append(tuple(sorted(tuple(sorted(chain)) for chain in frontier)))
        nxt = []
        for chain in frontier:
            for j in greater[chain[-1]]:
                nxt.append(chain + (j,))
        frontier = nxt
    return OrderComplex(tuple(levels))


@dataclass(frozen=True)
class ChainComplex:
    """Boundary matrices of a cell complex, stored column-sparse.

    boundaries[d] describes the boundary of each d-cell as a list of
    (row, coefficient) pairs into the (d-1)-cells, integer coefficients;
    boundaries[0] is the zero map.
    """

    counts: tuple
    boundaries: tuple

    def boundary_rows(self, d):
        """Row-major sparse copy of the d-th boundary matrix.

        `betti` ranks the stored columns directly; this copy is read by the
        tests and by the benchmark's traced pass.
        """
        rows = [dict() for _ in range(self.counts[d - 1])] if d >= 1 else []
        if 1 <= d < len(self.boundaries):
            for col, entries in enumerate(self.boundaries[d]):
                for row, sign in entries:
                    rows[row][col] = sign
        return rows

    def betti(self):
        """Betti numbers b_0 .. b_top, exactly, every boundary ranked by
        exact_rank.

        b_d = (number of d-cells) - rank(boundary_d) - rank(boundary_{d+1}).
        """
        ranks = [0] + [exact_rank(map(dict, cols)) for cols in self.boundaries[1:]] + [0]
        return tuple(n - ranks[d] - ranks[d + 1] for d, n in enumerate(self.counts))


def chain_complex(K):
    """Boundary matrices of an order complex, alternating signs on faces."""
    boundaries = [tuple(() for _ in K.simplices[0])] if K.simplices else []
    for d in range(1, len(K.simplices)):
        lookup = {s: i for i, s in enumerate(K.simplices[d - 1])}
        cols = []
        for s in K.simplices[d]:
            entries = []
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                entries.append((lookup[face], (-1) ** i))
            cols.append(tuple(entries))
        boundaries.append(tuple(cols))
    return ChainComplex(K.counts(), tuple(boundaries))


# ---------------------------------------------------------------------------
# exact linear algebra


def exact_rank(rows):
    """Rank over the rationals of sparse integer rows (col -> value dicts).

    One echelon pass (Edelsbrunner, Letscher and Zomorodian, 2002): each row
    is reduced against the row stored under its leading (largest) column
    until that column is free, then stored there; the rank is the number of
    stored rows. Fraction-free: p[c]*row - row[c]*p, divided by the gcd of
    its entries. Explicit zero entries are dropped as each row is taken in.
    The given dicts are never modified, and rows may be any iterable;
    columns give the same rank.
    """
    pivots = {}
    for row in rows:
        if 0 in row.values():
            row = {k: v for k, v in row.items() if v}
        while row:
            c = max(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = row
                break
            a, b = p[c], row[c]
            new = {}
            for k in row.keys() | p.keys():
                w = a * row.get(k, 0) - b * p.get(k, 0)
                if w:
                    new[k] = w
            g = math.gcd(*new.values())
            row = {k: v // g for k, v in new.items()} if g > 1 else new
    return len(pivots)
