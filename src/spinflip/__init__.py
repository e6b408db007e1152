"""Inverse-engineered electric-field pulses for fast spin flips in
spin-orbit-coupled quantum dots, with closed- and open-system validation."""

from .constants import HBAR, K_B, MU_B, MaterialParams, gaas
from .core import (FieldTriple, build_heff, bloch_to_density, commutator,
                   density_to_bloch, spin_to_bloch, spin_to_density,
                   zeeman_splitting)
from .errors import (ConfigError, DegenerateReferenceError, IntegratorError,
                     SingularityError)
from .fields import (SingularityReport, compute_b0_max, detect_singularities,
                     effective_fields, electric_fields, fields_xyz_at,
                     require_cancellable, sample_fields, verify_cancellation)
from .invariant import (InvariantSpec, PerturbedEvolution, Propagation,
                        chi_eigenstates, fidelity, invariance_residual,
                        invariant_matrix, lr_phase,
                        perturbed_initial_evolution, propagate_constant,
                        propagate_schrodinger)
from .lowdin import (BlockPartition, FourLevelModel, build_full_hamiltonian,
                     closed_form_elements, lowdin_reduce, orbital_adiabaticity,
                     partition, validity_check, xi_factors)
from .opensys import (BlochTrajectory, DensityTrajectory, ensemble_sweep,
                      fidelity_from_w, perturbative_bound, propagate_bloch,
                      propagate_density, propagate_master)
from .trajectory import (CubicPolynomial, TrajectoryDesign, eval_angles,
                         solve_phi, solve_theta)

__version__ = "0.1.0"
