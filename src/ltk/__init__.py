"""Homogeneous Hamiltonian mechanics for thermodynamic state surfaces.

The package models thermodynamic processes as Hamiltonian dynamics on a
cotangent bundle without its zero section.  State properties live on conical
(Liouville) surfaces cut out by the canonical one-form; processes are flows
of generators homogeneous of degree 1 in the costate, which makes every
construction independent of the costate scale and lets the same dynamics be
read in energy or entropy chart coordinates, or — for extensive systems —
in fully reduced specific/intensive coordinates.

Modules:

* :mod:`ltk.diffkit`    — forward-mode derivatives with a finite-difference oracle
* :mod:`ltk.exprlang`   — a small arithmetic expression language
* :mod:`ltk.geometry`   — phase points, canonical forms, charts, homogenization
* :mod:`ltk.submanifold`— generating functions, lifts, membership, reduction
* :mod:`ltk.dynamics`   — canonical/contact/reduced fields and integration
* :mod:`ltk.brackets`   — Poisson and chart brackets with structure checks
* :mod:`ltk.portsys`    — port-thermodynamic systems and interconnection
* :mod:`ltk.tracegrad`  — generator gradients traced once and replayed as
  straight-line code, for ``simulate``'s field (imported on first use)
* :mod:`ltk.cli`        — the ``ltk`` command-line interface
"""

from .diffkit import Dual, ScalarFn, fd_grad, grad
from .exprlang import compile_fn, parse
from .geometry import (ChartDegenerateError, ContactPoint, EulerFieldKind,
                       PhasePoint, TangentVector, alpha, best_chart, beta,
                       dehomogenize, euler_residual, homogenize,
                       normalize_costate, project, sample_phase_points,
                       scale_costate)
from .submanifold import (GeneratingFunction, GibbsDuhemReport,
                          gibbs_duhem_check, legendre_point,
                          lift_generating_function, lift_phase_fn,
                          liouville_point, membership_norm,
                          membership_residual, reduced_point, specific_form,
                          tangent_basis)
from .dynamics import (Trajectory, TransportReport, commutator_residual,
                       contact_rhs, flow_transport_check, integrate,
                       lie_bracket_fd, phase_rhs, project_reduced,
                       reduced_rhs, rk4_step, scaling_commutation_check,
                       validate_degree)
from .brackets import (BracketReport, correspondence_residual, degree_check,
                       jacobi, jacobi_fn, jacobi_identity_residual,
                       leibniz_defect, poisson, poisson_fn)
from .portsys import (BUILTIN_SYSTEMS, PortSignal, PortSystem,
                      SimulationResult, ValidationReport, builtin,
                      energy_balance, entropy_balance, gas_piston_damper,
                      heat_compartment, heat_exchanger, ideal_gas_SVN,
                      interconnect, outputs, simulate, validate)

__version__ = "0.1.0"
