"""Numerical laboratory for the semilinear heat equation u_t = Lap(u) + |u|^p
on model manifolds: evolve solutions, detect blow-up, and check the sharp
inequalities (minimum comparison, gradient bounds, decay and universal
envelopes, ball lower bounds, oscillation-decay triviality) with fitted
constants and explicit tolerances.

The public names load on first use (PEP 562): ``import semiheat`` runs no
submodule, the first access to a name imports its home module, and later
accesses read the name cached on the package.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# the public names, by the submodule that defines each
_EXPORTS = {
    "cutoff": (
        "CertificationResult", "SmoothCutoff", "build_phi", "default_power",
        "export_cutoff_csv", "verify_phi_inequality",
    ),
    "estimates": (
        "EstimateParams", "EstimateReport", "ball_mask",
        "check_decay", "check_gradient_estimate", "check_lower_bound_lemma",
        "check_positivity_min_ode", "check_triviality", "check_universal",
        "exponent_regime", "lemma_admissibility_min", "scheme_tolerance",
        "talenti_residual",
    ),
    "evolve": (
        "BlowupInfo", "EvolveControls", "SolverAbort", "Trajectory",
        "ancient_approximation", "detect_blowup", "evolve", "export_trajectory",
        "trajectory_from_samples",
    ),
    "experiment": (
        "ConfigError", "ExperimentConfig", "RunReport", "config_hash", "emit_plot_data",
        "load_config", "run_experiment", "validate_config",
    ),
    "geometry": (
        "CLOSED_KINDS", "KINDS", "DiscreteManifold", "build_manifold",
        "curvature_bound", "gradient_norm", "implicit_diffusion_solve",
        "laplace_beltrami", "laplacian_spectrum",
    ),
    "reaction_ode": (
        "ScalarTrajectory", "blowup_time_from_min", "integrate_scalar_ode",
        "ode_lower_envelope", "reaction_flow", "trivial_ancient", "validate_exponent",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # a public name imports its home module, and a home module's own name
    # (``semiheat.geometry``) that module; ``evolve``, which is both, is
    # the function
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    # ``evolve`` names both a function and a submodule.  The first import of
    # ``semiheat.evolve``, by any module, binds that submodule onto the
    # package; refusing the binding keeps ``semiheat.evolve`` the function,
    # which ``__getattr__`` then resolves.  The module itself is
    # ``importlib.import_module("semiheat.evolve")``.
    def __setattr__(self, name, value):
        if name == "evolve" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
