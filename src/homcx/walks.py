"""Walks in a graph and the reduced-walk algebra.

A walk is a nonempty vertex sequence with consecutive vertices adjacent. A
walk is reduced when it never backtracks (no x, y, x pattern). Reduced walks
compose like groupoid elements: concatenate, then cancel backtracking from
the seam. Length-zero walks act as identities and reversal is inversion.

The public constructors check every vertex, step and backtrack. Walks the
package builds itself, from tuples it enumerated or from walks already
checked, skip re-validation through `Walk._from_checked`.
"""

from __future__ import annotations

from .errors import NotClosed, SourceTargetMismatch
from .graphs import DEFAULT_CAP, _is_int, _over_cap, _require_cap, require_vertex


class Walk:
    """A walk in a fixed ambient graph, stored as its vertex sequence."""

    __slots__ = ("graph", "vertices", "_hash")

    def __init__(self, graph, vertices):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("a walk needs at least one vertex")
        for x in vertices:
            if not (_is_int(x) and 0 <= x < graph.n):
                raise ValueError(f"vertex {x!r} out of range")
        for a, b in zip(vertices, vertices[1:]):
            if not graph.has_edge(a, b):
                raise ValueError(f"({a}, {b}) is not an edge, so this is not a walk")
        self.graph = graph
        self.vertices = vertices
        self._hash = hash((graph, vertices))

    @classmethod
    def _from_checked(cls, graph, vertices):
        """A walk from a vertex tuple the package built as a walk in graph
        (without backtracking, for a ReducedWalk): no check of __init__ runs."""
        self = object.__new__(cls)
        self.graph, self.vertices, self._hash = graph, vertices, hash((graph, vertices))
        return self

    @property
    def source(self):
        return self.vertices[0]

    @property
    def target(self):
        return self.vertices[-1]

    @property
    def length(self):
        return len(self.vertices) - 1

    def is_closed(self):
        return self.source == self.target

    def is_reduced(self):
        v = self.vertices
        return all(v[i] != v[i + 2] for i in range(len(v) - 2))

    def __eq__(self, other):
        return (
            isinstance(other, Walk)
            and self.graph == other.graph
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}{self.vertices}"


class ReducedWalk(Walk):
    """A walk with no backtracking anywhere."""

    __slots__ = ()

    def __init__(self, graph, vertices):
        super().__init__(graph, vertices)
        v = self.vertices
        for i in range(len(v) - 2):
            if v[i] == v[i + 2]:
                raise ValueError(f"backtrack at position {i}: {v[i:i + 3]}")


def trivial_walk(graph, x):
    """The length-zero walk sitting at x."""
    return ReducedWalk(graph, (x,))


def reduce_walk(walk):
    """Fully cancel backtracking.

    One left-to-right stack pass suffices: deleting an x, y, x pattern never
    creates an earlier one that the stack has not already seen, and every
    deletion order reaches this same normal form.
    """
    stack = []
    for x in walk.vertices:
        if len(stack) >= 2 and stack[-2] == x:
            stack.pop()
        else:
            stack.append(x)
    return ReducedWalk._from_checked(walk.graph, tuple(stack))


def conjugate(x, w, y):
    """reduce((x,) + w + (y,)) for a reduced vertex tuple w.

    x must neighbor w[0] and y must neighbor w[-1]. As w is reduced,
    prepending x can cancel only against w[1], and appending y only against
    the vertex left just before w[-1], so at most one cancellation happens
    at each end.
    """
    v = w[1:] if len(w) >= 2 and w[1] == x else (x,) + w
    return v[:-1] if len(v) >= 2 and v[-2] == y else v + (y,)


def extend(w, y):
    """reduce(w + (y,)) for a reduced vertex tuple w whose last vertex
    neighbors y: w drops its last vertex when y is the one before it, and
    grows by y otherwise."""
    return w[:-1] if len(w) >= 2 and w[-2] == y else w + (y,)


def concat_walks(a, b):
    """Plain concatenation (no cancellation). Endpoints must meet."""
    if a.graph != b.graph:
        raise ValueError("walks live in different graphs")
    if a.target != b.source:
        raise SourceTargetMismatch(
            f"cannot append a walk starting at {b.source} after one ending at {a.target}"
        )
    return Walk._from_checked(a.graph, a.vertices + b.vertices[1:])


def walk_product(a, b):
    """Groupoid product of reduced walks: concatenate, then reduce."""
    return reduce_walk(concat_walks(a, b))


def walk_inverse(w):
    """Reversal. Reduced walks stay reduced."""
    return type(w)._from_checked(w.graph, w.vertices[::-1])


def map_walk(f, walk):
    """Push a walk through a homomorphism, vertex by vertex. No reduction."""
    if walk.graph != f.domain:
        raise ValueError("walk does not live in the domain of the homomorphism")
    return Walk._from_checked(f.codomain, tuple(f(x) for x in walk.vertices))


def is_cyclically_reduced(walk):
    """Reduced, length at least 3, and no backtracking across the seam either.

    Writing the walk as x_0, ..., x_k with x_k = x_0, the seam condition is
    x_{k-1} != x_1 (the wrap of the usual no-backtrack rule).
    """
    if not walk.is_closed():
        raise NotClosed(f"walk from {walk.source} to {walk.target} is not closed")
    if walk.length < 3 or not walk.is_reduced():
        return False
    return walk.vertices[-2] != walk.vertices[1]


def is_f_tight(f, walk):
    """Does the image of this closed walk stay cyclically reduced under f?"""
    if not walk.is_closed():
        raise NotClosed("tightness is only defined for closed walks")
    return is_cyclically_reduced(map_walk(f, walk))


# ---------------------------------------------------------------------------
# enumeration helpers


def _reduced_walks(graph, sources, max_len, cap):
    """All reduced walks of length <= max_len from the sorted sources, in
    (length, vertex sequence) order, as each level extends the last in order.
    More than cap of them raises ExplosionGuard as soon as a level passes it;
    math.inf means no cap. A max_len below 0 raises ValueError."""
    _require_cap(cap)
    if not max_len >= 0:
        raise ValueError(f"max_len must be a nonnegative integer, got {max_len!r}")
    out = []
    frontier = [(s,) for s in sources]
    level = 0
    while frontier and level <= max_len:
        out.extend(frontier)
        if len(out) > cap:
            raise _over_cap("reduced walks", len(out), cap)
        frontier = [
            w + (y,) for w in frontier for y in graph.neighbors(w[-1]) if len(w) < 2 or w[-2] != y
        ]
        level += 1
    return [ReducedWalk._from_checked(graph, w) for w in out]


def reduced_walks_from(graph, source, max_len, cap=DEFAULT_CAP):
    """All reduced walks starting at source with length <= max_len.

    Ordered by (length, vertex sequence). A source outside the graph raises
    GraphInputError.
    """
    require_vertex(graph, source)
    return _reduced_walks(graph, (source,), max_len, cap)


def all_reduced_walks(graph, max_len, cap=DEFAULT_CAP):
    """All reduced walks of length <= max_len from every source, sorted."""
    return _reduced_walks(graph, graph.vertices(), max_len, cap)


def closed_reduced_walks_at(graph, base, max_len):
    """All closed reduced walks at base with length <= max_len, sorted. More
    than DEFAULT_CAP reduced walks from base, closed or not, raise
    ExplosionGuard."""
    return [w for w in reduced_walks_from(graph, base, max_len) if w.target == base]
