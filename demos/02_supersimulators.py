"""Walkthrough: simulators that fool families richer than themselves.

A graded ladder is a chain of nested distinguisher families; a growth map
says how far above a simulator's own level its audited guarantee must
reach.  The expanding construction keeps one error tolerance and climbs the
ladder; the shrinking construction reruns the calibrated builder with a
per-level tolerance and returns two adjacent simulators whose L2 gap is
provably small.

Run:  python demos/02_supersimulators.py
"""

import numpy as np

import regsim as rs


def build_ladder(n, rng, depth, pad_to):
    base = [np.ones(n)]
    levels = []
    for _ in range(depth):
        base.append((rng.uniform(0, 1, size=n) > 0.5).astype(float))
        levels.append(rs.explicit_family([list(v) for v in base], name=f"L{len(levels)}"))
    # A shift growth map climbs one level per update, so pad by repeating the
    # top family until the worst-case update count fits.
    return rs.GradedLadder(levels, name="random-nested").padded(pad_to)


def main():
    rng = np.random.default_rng(21)
    n = 16
    eps = 0.05
    dist = rs.Distribution(rng.dirichlet(np.ones(n)))
    ladder = build_ladder(n, rng, depth=6, pad_to=rs.updates_bound(eps) + 8)
    growth = rs.GrowthMap.shift(ladder, 1)
    # Target correlated with members that only appear higher up the ladder,
    # so the run has a reason to climb.
    deep = ladder[5].matrix[-1]
    g = rs.BoundedFn(np.clip(0.1 + 0.75 * deep + rng.uniform(-0.08, 0.08, n), 0, 1))

    print("== expanding construction ==")
    result = rs.supersimulator_expanding(g, dist, ladder, growth, eps)
    print(f"simulator level: {result.level}, audited against level {result.fooled_level}")
    print(f"updates: {result.updates} (bound index {result.bound_index})")
    ma = rs.best_response(ladder[result.fooled_level], g, result.h, dist).correlation
    print(f"regularity against the grown family: {ma:.6f} <= {eps}")
    formal = result.recurrence.labels[min(result.bound_index, len(result.recurrence.labels) - 1)]
    print(f"measured label {result.label.to_json()} vs formal bound {formal.to_json()}"
          f" (saturated: {result.recurrence.saturated})")

    print("\n== shrinking construction ==")
    schedule = rs.ErrorSchedule.geometric(0.1, 0.8, ladder.depth, floor=0.02)
    alpha = 0.2
    pair = rs.supersimulator_shrinking(g, dist, ladder, growth, schedule, alpha)
    print(f"levels: h at {pair.level_s}, h' at {pair.level_s_prime}, "
          f"stopped at round {pair.round_index} (bound {pair.round_bound})")
    print(f"similarity E(h-h')^2 = {pair.similarity:.6f} "
          f"<= gap + 4*eps = {pair.phi_gap + 4 * pair.eps_at_s:.6f}")
    _, markov, _ = pair.inequalities
    print(f"Markov corollary: measured {markov.lhs:.4f} <= "
          f"{pair.eps_at_s:.4f} + 2*beta^(1/3) = {markov.rhs:.4f} -> {markov.passes}")


if __name__ == "__main__":
    main()
