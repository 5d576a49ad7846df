"""Exact-arithmetic toolkit for quiver stability on the projective line.

Submodules: rational projective geometry (projline), wall-and-chamber
decompositions of the normalized weight polytopes with the vertex
projection and the enumeration cap (chambers), exact linear programming
(lp), point configurations and their stability (configs),
stable pointed trees and chains with their chart coordinates (curves),
seeded generators (generate), the verification suites (verify), JSON
serialization (serialize), and the command line (cli).
"""

__version__ = "0.1.0"
