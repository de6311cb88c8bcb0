"""Algebraic simulation theory of one-dimensional cellular automata
over prime fields: iterative powers, products, subalgebras, quotients,
invariant-subspace analysis of additive rules, and exact or bounded
decision of the simulation preorder."""

from .caps import CapExceeded, Caps, DEFAULT_CAPS
from .fp_linalg import (FpMatrix, Subspace, common_invariant_subspaces, invariant_closure,
                        is_simple, rref)
from .ca_core import (Congruence, LocalAlgebra, SpaceTimeDiagram, are_isomorphic,
                      check_translation, eca, enumerate_congruences,
                      enumerate_subalgebras, evolve, idempotents, iterative_power,
                      permutivity, product, quotient, restrict, singleton, unpack,
                      unravel)
from .affine_ca import (AffineAlgebra, CanonicalAdditive, CoefficientProfile,
                        canonical_additive, check_structure, classify_affine,
                        component_matrices, e0_evolution, fit_affine,
                        is_affine_up_to_iso, is_doubly_bijective, quotient_affine,
                        subalgebra_affine, to_table, verify_splitting)
from .simulation import (ClosureInventory, SearchBounds, SimulationVerdict,
                         classify_canonical, closure_members, replay_witness,
                         simulates, verify_affine_closure, verify_characterization)

__version__ = "0.1.0"
