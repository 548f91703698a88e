"""turanlab: desk-scale workbench for degenerate Turan/Zarankiewicz experiments.

Layers, bottom up: finite fields and norm maps (ff), graph and 3-graph
containers (hypergraph), pattern containment searches (patterns), norm-graph
constructions (constructions), d-full subgraph extraction (fullness), exact
extremal solvers and bound certificates (solvers), experiment harness
(harness), invariant suites behind ``check`` (suites), command line front
end (cli).
"""

__version__ = "0.1.0"
