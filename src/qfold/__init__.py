"""qfold: exact computations around quiver diagram automorphisms.

The package computes split-quotient quivers with their induced
automorphisms, folds Cartan matrices to automorphism-fixed subalgebras
with matrix-level relation checks, solves the associated finite-type
branching problems, and provides an exact-arithmetic laboratory for
framed preprojective modules (stability, twisted transport, transition
matrices, eigenspace profiles and inclusions).

Each name is imported from the module that defines it, for example
`from qfold.rep_branch import branch`.
"""
