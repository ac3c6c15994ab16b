"""Straightforward reference implementations for differential tests.

Each module keeps the plain, unoptimised form of a hot routine whose
``src/`` version was rewritten for speed without changing its answers:

* :mod:`tests.reference.construct` — Algorithm 3's ``find_cut`` (Prim
  prefix growth and jittered-Kruskal MST subtree cuts, each restart
  rescanning the whole graph) and ``construct_partition`` on top of it;
* :mod:`tests.reference.heap` — the indexed binary heap that sifts by
  pairwise swaps;
* :mod:`tests.reference.cost` — Equation (1) summed net by net through
  :func:`repro.htp.cost.net_cost`.

The property tests compare the optimised versions against these for
identical lists, trees, heap arrays, float costs and RNG states.
Nothing under ``src/`` imports them.
"""
