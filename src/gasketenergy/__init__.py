"""Exact energy-measure arithmetic on the Sierpinski gasket.

Subpackages by role:

- ``core``        exact scalars/vectors/matrices, words, vertex addresses
- ``harmonic``    harmonic functions from boundary triples, energies
- ``measures``    cell masses of energy measures, positivity, decompositions
- ``derivatives`` measure-vs-measure derivatives at vertices, decay, scans
- ``bvectors``    normalized child-mass triples and their three routes
- ``dynamics``    the induced disk/circle iteration, histograms (floats)
- ``verify``      runnable invariant suites
- ``cli``         command-line entry point (``gasketenergy``)
"""

__version__ = "0.1.0"

#: Largest bin (or slice) count any histogram accepts.  It lives here, not in
#: ``dynamics``, so the ``ifs`` help text can name it without loading numpy.
BINS_MAX = 100_000
