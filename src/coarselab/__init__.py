"""coarselab: computational coarse geometry on finite sampled spaces.

Modules:
  spaces      pseudometric samples, one metric backend per geometry,
              entourage algebra
  covers      the Cover type and its quality metrics
  transforms  colorize / expand / merge_union / product_refine
  witnesses   cube, tree, ray, star covers; fully-labeled-cell search;
              the positive-cone lower-bound certificate
  hyperbolic  radial projection, parameter bounds, arc atlases, disk lift
  support     block decompositions, operator supports, the support calculus
  corona      compactification models, boundary control, the band cover
  cli         the `coarselab` command-line front end
"""

import os

__version__ = "0.1.0"


def _cap_threads() -> None:
    """Honor COARSE_LAB_THREADS by capping BLAS pools when possible."""
    cap = os.environ.get("COARSE_LAB_THREADS")
    if not cap:
        return
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(int(cap))
    except Exception:
        # numpy without threadpoolctl: BLAS pool size is fixed at import,
        # which is fine for determinism (results never depend on it)
        pass


_cap_threads()
