"""Numerical toolkit for Zak-transform analysis of Gabor Riesz sequences on
rational lattices: the Zak transform as a quasi-periodic field,
singular-value Riesz bounds, additional-shift invariance solvers,
mean-oscillation (VMO) diagnostics, exact SL(2,Q) factorization with
metaplectic transport, and uncertainty-product divergence sweeps.

The package re-exports nothing; import its modules
(``from zakvmo import gabor``) and read their names there."""

__version__ = "0.1.0"

# The kernels have one numpy implementation and no compiled path; the flag
# stays because run metadata records it.
USING_NUMBA = False
