"""repro — reproduction of *Intense Competition can Drive Selfish Explorers to Optimize Coverage*.

The library implements the dispersal game of Collet & Korman (SPAA 2018):
``k`` selfish players simultaneously pick one of ``M`` sites of value
``f(1) >= ... >= f(M)``; a congestion policy ``I(x, l) = f(x) * C(l)`` rewards
each of the ``l`` players that landed on site ``x``.  The package provides

* the game model (:mod:`repro.core`): values, strategies, congestion policies,
  coverage, payoffs, the closed-form :func:`repro.core.sigma_star.sigma_star`,
  the general IFD solver, ESS machinery and the symmetric price of anarchy;
* batched instance solvers (:mod:`repro.batch`): whole ``(instances x
  k-grid)`` grids — ``sigma_star``, coverage optima, IFDs, SPoA, the
  Section-5 scenario extensions (:mod:`repro.batch.scenarios`,
  :mod:`repro.batch.extensions`; their one implementation) and the
  Theorems 4-6 mechanism sweeps — in a handful of tensor passes over
  padded ragged batches, expressed as pure Array-API kernels against the
  pluggable backend layer of :mod:`repro.backend` (``numpy`` default;
  ``array_api_strict`` / ``torch`` auto-detected, selected via
  ``use_backend`` / ``REPRO_BACKEND`` / the CLI's ``--backend``);
* evolutionary and learning dynamics converging to the IFD
  (:mod:`repro.dynamics`);
* a vectorised Monte-Carlo simulator of the one-shot game
  (:mod:`repro.simulation`), sampling through the shared inverse-CDF drawer
  of :mod:`repro.utils.sampling`;
* mechanism-design baselines (:mod:`repro.mechanism`) and the Bayesian
  parallel-search connection (:mod:`repro.search`);
* the experiment harness that regenerates the paper's Figure 1, the
  numerical checks of Theorems 3, 4, 6 and Corollary 5, and the scenario
  sweeps (:mod:`repro.analysis`), built as thin clients of the declarative
  registry/runner subsystem of :mod:`repro.experiments` (process-pool
  fan-out, deterministic per-task seeding, JSON/CSV result artifacts).

The documentation site under ``docs/`` (mkdocs-material, built with
``mkdocs build --strict`` in CI) covers the architecture, the backend
conventions, every registered experiment and the full API reference.

Quickstart
----------
>>> from repro import SiteValues, ExclusivePolicy, sigma_star, ideal_free_distribution
>>> f = SiteValues.from_values([1.0, 0.5, 0.25])
>>> result = sigma_star(f, k=3)
>>> result.strategy.as_array().round(3)
array([0.547, 0.359, 0.094])
>>> ideal_free_distribution(f, 3, ExclusivePolicy()).strategy == result.strategy
True
"""

from repro.core import __all__ as _core_all
from repro.utils.lazy import lazy_exports

__version__ = "1.1.0"

# Re-export the stable public API of repro.core.
__all__ = [*lazy_exports(__name__, dict.fromkeys(_core_all, "repro.core")), "__version__"]
