"""Walkthrough: boosting a simulator and auditing every claim it makes.

A target g assigns each point of a finite domain a value in [0, 1]; a
simulator h is another such function that a family of distinguishers should
not be able to tell apart from g in correlation.  This script builds the
three simulator flavors on a small domain and prints the from-scratch
audits next to the promised bounds.

Run:  python demos/01_boosting_and_audits.py
"""

import numpy as np

import regsim as rs


def main():
    rng = np.random.default_rng(7)
    n = 8
    dist = rs.Distribution(rng.dirichlet(np.ones(n)))
    # Target leans hard on the top encoding bit, so coordinate distinguishers
    # have real correlations to boost away.
    bit0 = (np.arange(n) >> 2) & 1
    g = rs.BoundedFn(np.clip(0.15 + 0.7 * bit0 + rng.uniform(-0.1, 0.1, n), 0, 1))
    dom = rs.FiniteDomain(size=n, bit_width=3)
    family = rs.build_coordinate_family(dom)

    print("== plain regularity boost ==")
    eps = 0.1
    h, trace = rs.multiaccuracy_boost(g, dist, family, rs.BoostParams(epsilon=eps))
    br = rs.best_response(family, g, h, dist)
    print(f"updates: {trace.update_count} (cap {rs.updates_bound(eps)})")
    print(f"multiaccuracy error: {br.correlation:.6f} <= {eps}  (witness member {br.index})")
    for r in trace.records:
        drop = r.phi_before - r.phi_after
        print(f"  step {r.step}: corr={r.correlation:+.4f} drop={drop:.5f} via {r.descriptor}")

    print("\n== calibrated variant ==")
    gamma = 0.02
    hc, trace_c = rs.calibrated_multiaccuracy(
        g, dist, family, rs.BoostParams(epsilon=eps, gamma=gamma)
    )
    print(f"updates: {trace_c.update_count}")
    print(f"multiaccuracy error: {rs.best_response(family, g, hc, dist).correlation:.6f} <= {eps}")
    print(f"calibration error:   {rs.calibration_error(g, hc, dist):.6f} <= {gamma}")
    print(f"distinct values of h: {len(np.unique(hc.values))}")

    print("\n== multicalibration ==")
    eps_mc = 0.2
    hm, trace_m = rs.multicalibrate(g, dist, family, eps_mc)
    report = rs.multicalibration_check(g, hm, dist, family, eps_mc)
    print(f"level updates: {trace_m.update_count}, passes: {report.passes}, "
          f"bad mass: {report.bad_mass:.4f}")
    for lvl in report.levels:
        print(f"  level {lvl.value:.2f}: mass={lvl.mass:.3f} worst conditional error={lvl.max_error:.4f}")
    ma3 = rs.best_response(family, g, hm, dist).correlation
    print(f"implied multiaccuracy: {ma3:.4f} <= 3*eps = {3 * eps_mc}")


if __name__ == "__main__":
    main()
