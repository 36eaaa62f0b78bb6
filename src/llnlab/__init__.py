"""Desk-scale verification lab for weighted stochastic domination and LLNs.

Submodules:

* ``model``      - tail functions, distributions, arrays, weights, norming
* ``svf``        - slowly varying functions and their conjugates
* ``moments``    - tail-integral expectations and weighted moment scans
* ``domination`` - tail-sup functionals and the dominating-cdf construction
* ``conditions`` - verdicts for integral/series/ratio/limit hypotheses
* ``simulate``   - deterministic Monte Carlo for partial-sum laws
* ``fixtures``   - the problem record; worked examples with exact closed forms
* ``specio``     - JSON problem descriptions
* ``cli``        - batch front end (`llnlab check|simulate|verify-fixtures`)
"""

__version__ = "0.1.0"
