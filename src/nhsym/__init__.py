"""Symmetry workbench for non-Hermitian tight-binding models.

Construct small lattice and four-level Hamiltonians, verify or discover
their symmetry operators (chiral, antilinear, transpose- and dagger-type),
and analyze the spectral consequences: symmetric spectra, protected zero
modes, and exceptional points.
"""

from .clifford import (GammaExpr, basis16, basis16_labels, expand_in_basis16,
                       expr_to_matrix, format_expr, gamma, parse_expr)
from .linalg import (ClusterWarning, ConvergenceError, EigenSystem, eig,
                     multiplicities, nullspace)
from .model import (Model, bipartite_pseudo, chain_parity, dirac4,
                    honeycomb_flake, lattice_operator, load_model,
                    mirror_chain, pyramid, pyramid_evolving_chiral, rt_wheel,
                    save_model, ssh_bloch, to_matrix)
from .spectra import (EPReport, ProfileResult, Protocol, SpectrumSymmetry,
                      SweepResult, ZeroMode, classify_spectrum, ep_locate,
                      intensity_ratio, jordan2, mode_profile, protocol, sweep,
                      to_csv, zero_modes)
from .symmetry import (PseudoReport, SAResult, SymOp, check, discover,
                       hidden_nhph, load_op, named_operator, product_chiral,
                       product_pseudo, pseudo_from_sa, pseudo_properties,
                       sa_split, save_op, wick_rotate)

__version__ = "0.1.0"

__all__ = [
    "GammaExpr", "basis16", "basis16_labels",
    "expand_in_basis16", "expr_to_matrix", "format_expr", "gamma",
    "parse_expr",
    "ClusterWarning", "ConvergenceError", "EigenSystem", "eig",
    "multiplicities", "nullspace",
    "Model", "bipartite_pseudo", "chain_parity", "dirac4", "honeycomb_flake",
    "lattice_operator", "load_model", "mirror_chain", "pyramid",
    "pyramid_evolving_chiral", "rt_wheel", "save_model", "ssh_bloch",
    "to_matrix",
    "EPReport", "ProfileResult", "Protocol", "SpectrumSymmetry",
    "SweepResult", "ZeroMode", "classify_spectrum", "ep_locate",
    "intensity_ratio", "jordan2", "mode_profile", "protocol", "sweep",
    "to_csv", "zero_modes",
    "PseudoReport", "SAResult", "SymOp", "check", "discover", "hidden_nhph",
    "load_op", "named_operator", "product_chiral", "product_pseudo",
    "pseudo_from_sa", "pseudo_properties", "sa_split", "save_op",
    "wick_rotate",
    "__version__",
]
