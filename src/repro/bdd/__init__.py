"""A from-scratch Reduced Ordered Binary Decision Diagram (ROBDD) package.

The 1995 SIGNAL compiler relied on the UC Berkeley BDD package to give
clock formulas a canonical form and to build the characteristic-function
baseline of Figure 13.  This package is the pure-Python stand-in: it
provides a :class:`BDDManager` with a unique table, a computed cache, the
classical ``ite`` kernel, boolean connectives, quantification, restriction
and structural statistics (node counts) used throughout the clock calculus
and the benchmarks.
"""

from .manager import BDD, BDDManager, BDDNode

__all__ = ["BDD", "BDDManager", "BDDNode"]
