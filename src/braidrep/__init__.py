"""Exact rational toolkit for braid group matrix representations.

Builds the named representation families, verifies the defining relations,
computes friendship graphs by exact rank tests on the images, certifies
irreducibility, and recovers the standard form of corank-2 chain
representations.  The package binds no names: each is imported from its
module, ``braidrep.linalg``, ``.zoo``, ``.braid``, ``.friendship``,
``.classify``, ``.cli`` or ``.errors``.
"""
