"""Exact v-numbers of binomial edge ideals of small graphs.

The package namespace holds the library's three entry points; everything
else is imported from its own module (vnum.graphs, vnum.poly, vnum.errors,
and so on).
"""

__version__ = "0.1.0"

from .edgeideals import vnumber
from .cycles import cycle_graph, verify_cycle
