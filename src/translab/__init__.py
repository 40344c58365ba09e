"""translab: a numerical laboratory for translating solitons of mean
curvature flow in R^3 and curve shortening flow.

Conventions used throughout: surfaces translate downward (-e3), graphs carry
the upward unit normal, and the translator identity is the orientation-free
H_vec = -e3_perp (so H + <e3, N> = 0 in the fixed orientation).
"""

__version__ = "0.1.0"
