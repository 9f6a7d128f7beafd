"""Chain complexes, their exact Betti numbers, and order complexes of posets.

A `ChainComplex` holds sparse boundary matrices with +1/-1 entries. The
production path builds one from the cells of a component of Hom(G, H)
(`hom_poset.cellular_chain_complex`). The order complex of a finite poset,
whose simplices are the chains of the poset, is the barycentric subdivision
of the same space, so both must give the same Betti numbers; the tests use
it as an independent oracle (`order_complex` and `betti_numbers` in
tests/oracles.py), and the benchmark's traced pass times it. Betti numbers
are computed over the rationals with exact integer arithmetic: rows are
combined fraction-free and rescaled by their gcd, so no floating point is
involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ExplosionGuard, InvariantViolation


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

    def euler_characteristic(self):
        return sum((-1) ** d * len(level) for d, level in enumerate(self.simplices))


def complex_from_chains(n_vertices, greater, cap=200_000):
    """Order complex of a poset given by strict comparability lists.

    greater[i] lists the j with i strictly below j. Chains are grown along
    the poset order, so each chain arises exactly once; a chain is recorded
    as its sorted vertex tuple because poset order need not respect the
    numbering of the elements.
    """
    levels = []
    frontier = [(i,) for i in range(n_vertices)]
    total = 0
    while frontier:
        total += len(frontier)
        if total > cap:
            raise ExplosionGuard(f"order complex: reached {total} chains, over the cap of {cap}")
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
    (row, sign) pairs into the (d-1)-cells; boundaries[0] is the zero map.
    """

    counts: tuple
    boundaries: tuple

    def boundary_rows(self, d):
        """Row-major sparse copy of the d-th boundary matrix."""
        rows = [dict() for _ in range(self.counts[d - 1])] if d >= 1 else []
        if 1 <= d < len(self.boundaries):
            for col, entries in enumerate(self.boundaries[d]):
                for row, sign in entries:
                    rows[row][col] = sign
        return rows

    def check_boundary_squared(self):
        """Verify that consecutive boundary maps compose to zero."""
        for d in range(2, len(self.boundaries)):
            lower = self.boundaries[d - 1]
            for entries in self.boundaries[d]:
                acc = {}
                for mid, sign in entries:
                    for row, sign2 in lower[mid]:
                        acc[row] = acc.get(row, 0) + sign * sign2
                if any(v != 0 for v in acc.values()):
                    raise InvariantViolation("boundary of a boundary is nonzero")
        return True

    def betti(self, max_dim):
        """Betti numbers b_0 .. b_max_dim, exactly.

        b_d = (number of d-cells) - rank(boundary_d) - rank(boundary_{d+1}).
        """
        ranks = {0: 0}
        for d in range(1, min(len(self.counts) - 1, max_dim + 1) + 1):
            ranks[d] = exact_rank(self.boundary_rows(d))
        return tuple(
            (self.counts[d] if d < len(self.counts) else 0)
            - ranks.get(d, 0)
            - ranks.get(d + 1, 0)
            for d in range(max_dim + 1)
        )


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


def _row_pick_key(row):
    best = None
    for c, v in row.items():
        k = (abs(v) != 1, abs(v), c)
        if best is None or k < best:
            best = k
    return (best[0], best[1], len(row), best[2])


def exact_rank(rows):
    """Rank over the rationals of a sparse integer matrix (list of col->value dicts).

    Fraction-free: the eliminated row is scaled by the pivot before
    subtraction and then divided by the gcd of its entries, so values stay
    integral and small. Pivots prefer unit entries and short rows.
    """
    work = [dict(r) for r in rows if r]
    keys = [_row_pick_key(r) for r in work]
    rank = 0
    while work:
        ri = min(range(len(work)), key=lambda i: (keys[i], i))
        pivot_row = work.pop(ri)
        keys.pop(ri)
        c = min(
            pivot_row, key=lambda col: (abs(pivot_row[col]) != 1, abs(pivot_row[col]), col)
        )
        a = pivot_row[c]
        rank += 1
        nxt, nxt_keys = [], []
        for row, key in zip(work, keys):
            b = row.get(c)
            if b is None:
                nxt.append(row)
                nxt_keys.append(key)
                continue
            new = {}
            for cc, vv in row.items():
                w = a * vv - b * pivot_row.get(cc, 0)
                if w:
                    new[cc] = w
            for cc, vv in pivot_row.items():
                if cc not in row:
                    w = -b * vv
                    if w:
                        new[cc] = w
            if new:
                g = math.gcd(*new.values()) if len(new) > 1 else abs(next(iter(new.values())))
                if g > 1:
                    new = {k: v // g for k, v in new.items()}
                nxt.append(new)
                nxt_keys.append(_row_pick_key(new))
        work, keys = nxt, nxt_keys
    return rank


def elementary_divisors(matrix):
    """Nonzero diagonal entries of the Smith normal form of a small dense matrix.

    Dense integer algorithm, used to confirm homology groups carry no torsion
    on sampled complexes. matrix is a list of equal-length integer rows.
    """
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    divisors = []
    r = c = 0
    while r < rows and c < cols:
        # smallest nonzero entry of the remaining block becomes the pivot
        best = None
        for i in range(r, rows):
            for j in range(c, cols):
                v = m[i][j]
                if v != 0 and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        while best is not None:
            i, j = best
            m[r], m[i] = m[i], m[r]
            for row in m:
                row[c], row[j] = row[j], row[c]
            pivot = m[r][c]
            for i2 in range(r + 1, rows):
                q = m[i2][c] // pivot
                if q:
                    for j2 in range(c, cols):
                        m[i2][j2] -= q * m[r][j2]
            for j2 in range(c + 1, cols):
                q = m[r][j2] // pivot
                if q:
                    for i2 in range(r, rows):
                        m[i2][j2] -= q * m[i2][c]
            # leftovers are remainders, strictly smaller than the pivot: recurse on them
            best = None
            for i2 in range(r + 1, rows):
                if m[i2][c] != 0:
                    best = (i2, c)
                    break
            if best is None:
                for j2 in range(c + 1, cols):
                    if m[r][j2] != 0:
                        best = (r, j2)
                        break
        divisors.append(abs(m[r][c]))
        r += 1
        c += 1
    # repair divisibility pairwise
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            a, b = divisors[i], divisors[i + 1]
            if b % a != 0:
                g = math.gcd(a, b)
                divisors[i], divisors[i + 1] = g, a * b // g
                changed = True
    return divisors
