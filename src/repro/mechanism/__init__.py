"""Mechanism-design baselines and policy-design tooling.

The paper positions its congestion-policy result against the reward-design
mechanisms of Kleinberg & Oren (STOC 2011), in which a central entity cannot
change the competition rule (researchers share credit) but *can* change the
rewards attached to sites (grant sizes).  This subpackage implements that
baseline and the tooling to compare the two levers:

* :mod:`repro.mechanism.kleinberg_oren` — reward vectors steering the IFD of a
  fixed (e.g. sharing) policy to any target distribution, in particular to the
  coverage-optimal ``sigma_star``;
* :mod:`repro.mechanism.policy_design` — searching over congestion policies
  for a fixed reward vector (the paper's lever), including the ablation that
  the two-level policy's optimal collision payoff is ``c = 0``.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "GrantDesign": ".kleinberg_oren",
    "design_rewards_for_target": ".kleinberg_oren",
    "optimal_grant_design": ".kleinberg_oren",
    "proportional_rewards": ".kleinberg_oren",
    "PolicyComparison": ".policy_design",
    "best_two_level_policy": ".policy_design",
    "compare_policies": ".policy_design",
})
