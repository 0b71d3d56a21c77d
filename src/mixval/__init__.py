"""Scaling curves and data valuation for real/synthetic training mixtures.

Two toolsets around one data model (long-tail knowledge distributions
sampled into per-contributor real/synthetic mixtures):

* ``scaling``: an exact finite-sum test-error oracle for mixture
  training, closed-form phase expressions, and breakpoint detection on
  swept curves.
* ``mmd`` / ``ntk`` / ``valuation`` / ``evalharness``: a
  generalization-bound-derived contributor score (initial loss, kernel
  discrepancy, tangent-kernel bound term, composition penalty), its
  Shapley / leave-one-out aggregations, and a toy retraining harness
  that validates score rankings against ground truth.

Each name is imported from the module that defines it
(``from mixval.valuation import score_all``); the package itself holds
only those modules and ``__version__``.  The ``mixval`` command line
(``mixval.cli``, also ``python -m mixval``) exposes both toolsets; see
``mixval --help``.
"""

from . import errors, evalharness, longtail, mmd, ntk, scaling, valuation

__version__ = "0.1.0"
