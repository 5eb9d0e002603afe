"""Schroedinger dynamics on metric trees with delta vertex couplings.

Resolvent assembly, determinant recursions, zero-energy resonance
detection, bound-state spectra, dispersive time evolution through the
spectral formula with Filon-type oscillatory quadrature, an independent
Crank-Nicolson oracle, and general self-adjoint (A, B) couplings.
"""

from .trees import (
    Vertex, Edge, BuildStep, MetricTree,
    star_tree, attach_vertex, line_tree, edge_coordinate_map,
    validate_tree, tree_to_json, tree_from_json, load_tree, save_tree,
)
from .wavepackets import (
    Packet, GraphFunction, norms, free_evolution,
    gauss_exp_integral, packet_exp_integral, packet_pair_integral,
    function_to_json, function_from_json, load_function,
)
from .resolvent import (
    SingularSystemError, ResolventSystem, ResolventSolution, SystemTemplate,
    t_edge, system_ordering, assemble_system,
    solve_resolvent, evaluate_resolvent, resolvent_defect,
    vertex_value, vertex_flux_defect,
)
from .determinants import (
    InconclusiveWindingError, DetState, ResonanceReport, ScanReport,
    StageDiagnostics,
    stage_trees, det_direct, cleared_det, ratio_by_flip, det_recursive,
    winding_number, origin_radius, zero_order_at_origin,
    generalized_origin_check, strip_scan, stagewise_origin_checks,
    appendix_a_checks, coefficient_function, coefficient_order,
)
from .spectral import (
    Eigenfunction, SpectralData, ProjectedFunction,
    omega_bracket, eigen_inner, data_eigen_inner, find_eigenvalues,
    eigenfunction_at,
)
from .evolution import (
    ResonantTreeError, QuadratureSpec, Propagator, DecayReport,
    default_tau_max, oscillatory_sum, evolve_dispersive, evolve_full,
    decay_samples, decay_scan,
)
from .oracle import (
    DiscreteTree, CrankNicolson,
    discretize_tree, sample_function, sample_eigenfunction, discrete_mass,
    evolve_cn, safe_horizon, choose_truncation,
    boundary_energy_fraction,
)
from .couplings import (
    CouplingSpec, ConditionScanReport,
    check_self_adjoint, delta_matrices, dirichlet_matrices,
    assemble_general, det_general, det_general_recursive,
    sufficient_condition_scan, general_eigenvalues,
)

__version__ = "0.1.0"
