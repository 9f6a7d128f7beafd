"""The host's speed, timed on fixed work that calls no homcx code.

The shared host the benchmark was written on switches between a slow and a
fast phase (about 1.5 times faster) every few seconds to minutes, so a pass
over a workload runs partly in each, and the share differs from run to run.
HostClock times three fixed kernels between instances, at most once per
second of instance work, and gives each pass the mean of the readings taken
during it; a pass's wall time divided by that mean no longer depends on how
much of the pass fell into the fast phase. The kernels do the kinds of work
homcx does: building small int-keyed dicts, fraction-free elimination of a
sparse integer matrix, and frozenset inclusion tests. Each kind speeds up a
little differently in the fast phase, so a reading is their geometric mean.
No change to homcx moves them.
"""

import math
import random
import statistics
import time


class HostClock:
    """Readings of the three kernels, taken between instances."""

    EVERY_S = 1.0

    def __init__(self):
        rng = random.Random(0)
        self.rows = [{rng.randrange(50_000): rng.choice((-1, 1)) for _ in range(10)} for _ in range(10_000)]
        self.matrix = [{c: rng.choice((-1, 1)) for c in rng.sample(range(420), 3)} for _ in range(330)]
        self.sets = [frozenset(rng.sample(range(40), 6)) for _ in range(1_500)]
        self.readings = []
        self.due = 0.0

    def dicts(self):
        return sum(len({(k * 31 + 7) % 50_000: v * 3 - 1 for k, v in row.items()}) for row in self.rows)

    def eliminate(self):
        rows = [dict(r) for r in self.matrix]
        rank = 0
        while rows:
            pivot = rows.pop()
            col = min(pivot)
            a = pivot[col]
            rank += 1
            rest = []
            for row in rows:
                b = row.get(col)
                if b is None:
                    rest.append(row)
                    continue
                new = {c: a * v for c, v in row.items()}
                for c, v in pivot.items():
                    new[c] = new.get(c, 0) - b * v
                new = {c: v for c, v in new.items() if v}
                if new:
                    g = math.gcd(*new.values())
                    rest.append({c: v // g for c, v in new.items()})
            rows = rest
        return rank

    def subsets(self):
        return sum(a <= b for a in self.sets[::3] for b in self.sets)
    def tick(self):
        """Take a reading, unless a second of instance work has not yet passed."""
        if time.perf_counter() < self.due:
            return
        times = []
        for kernel in (self.dicts, self.eliminate, self.subsets):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.readings.append(statistics.geometric_mean(times))
        self.due = time.perf_counter() + self.EVERY_S

    def pass_ref(self):
        """The mean of the readings since the last call, one more taken now."""
        self.due = 0.0
        self.tick()
        ref = statistics.fmean(self.readings)
        self.readings = []
        return ref
