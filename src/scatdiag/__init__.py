"""Exact-arithmetic scattering diagrams for quivers with potential."""

from .lattice import Seed, a2_seed, a3_seed, kronecker_seed, markov_seed
from .torus import CLASSICAL, DT_TWIST, QUANTUM, GradedElement, dilog_group_element
from .scattering import (ScatDiagram, central_difference, cluster_sd,
                         complete_from_initial, dt_in_sd, endpoint_product,
                         factorize, mutate_sd_check, path_ordered_product,
                         psi_extract, quantum_cluster_sd)
from .qp import (Potential, Quiver, SeedWithPotential, is_k_mutable, mutate_qp,
                 mutate_sp, nondegenerate_to_depth)
from .chambers import (chamber_from_sequence, dt_series, enumerate_chambers,
                       enumerate_green_to_red, find_green_to_red)
from .reps import (Rep, at_prime, enumerate_reps, iq_wall_series, iq_wall_series_brute,
                   is_semistable, reflect, semistable_transport_check, simple_rep)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
