"""Seeded census targets, built without calling homcx.

Each target is a random connected graph with 16 to 30 vertices, maximum
degree 3 and no 4-cycle. The census time of a target follows |Hom(C5, H)|
closely, and over all draws that count ranges from 0 to a few hundred, so
only targets with 80 to 100 homomorphisms are kept: the total work of a
workload then hardly depends on its seed. The generator checks connectivity and
square-freeness itself, so a bug in homcx cannot shape its own inputs, and it
counts |Hom(C5, H)| independently as trace(A^5), the number of closed walks of
length 5, which the benchmark compares with the census report.
"""

from __future__ import annotations

import random

MIN_VERTICES, MAX_VERTICES, MAX_DEGREE = 16, 30, 3
MIN_HOMS, MAX_HOMS = 80, 100


def _has_path3(adj, u, v):
    """Is there a path u-a-b-v through two other vertices?

    Adding the edge uv to a graph with such a path closes a 4-cycle.
    """
    for a in adj[u]:
        if a == v:
            continue
        for b in adj[a]:
            if b != u and b != v and v in adj[b]:
                return True
    return False


def _draw(rng, n):
    adj = [set() for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    # a random spanning tree of maximum degree MAX_DEGREE ...
    for i in range(1, n):
        v = order[i]
        u = rng.choice([w for w in order[:i] if len(adj[w]) < MAX_DEGREE])
        adj[u].add(v)
        adj[v].add(u)
    # ... plus extra edges, each rejected when it would close a 4-cycle
    wanted = rng.randint(n // 3, n // 2)
    added = tries = 0
    while added < wanted and tries < 50 * n:
        tries += 1
        u, v = rng.sample(range(n), 2)
        if v in adj[u] or len(adj[u]) >= MAX_DEGREE or len(adj[v]) >= MAX_DEGREE:
            continue
        if _has_path3(adj, u, v):
            continue
        adj[u].add(v)
        adj[v].add(u)
        added += 1
    return adj


def is_connected(adj):
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(adj)


def has_square(adj):
    """Does some pair of distinct vertices have two common neighbours?"""
    n = len(adj)
    return any(
        len(adj[u] & adj[v]) >= 2 for u in range(n) for v in range(u + 1, n)
    )


def closed_walks(adj, length):
    """trace(A^length): closed walks of the given length, over all starts."""
    total = 0
    for s in range(len(adj)):
        vec = {s: 1}
        for _ in range(length):
            nxt = {}
            for x, c in vec.items():
                for y in adj[x]:
                    nxt[y] = nxt.get(y, 0) + c
            vec = nxt
        total += vec.get(s, 0)
    return total


def census_targets(seed, count):
    """count targets drawn from seed, as (graph JSON, |Hom(C5, H)|) pairs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        adj = _draw(rng, rng.randint(MIN_VERTICES, MAX_VERTICES))
        if not is_connected(adj) or has_square(adj):
            raise RuntimeError("generator produced a disconnected or 4-cycle graph")
        homs = closed_walks(adj, 5)
        if not MIN_HOMS <= homs <= MAX_HOMS:
            continue
        edges = sorted([u, v] for u in range(len(adj)) for v in adj[u] if u < v)
        out.append(({"n": len(adj), "edges": edges}, homs))
    return out
