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

__version__ = "0.1.0"
