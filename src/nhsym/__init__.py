"""Symmetry workbench for non-Hermitian tight-binding models.

Construct small lattice and four-level Hamiltonians, verify or discover
their symmetry operators (chiral, antilinear, transpose- and dagger-type),
and analyze the spectral consequences: symmetric spectra, protected zero
modes, and exceptional points.
"""
