"""Certified adversarial robustness for Bayesian neural networks.

Bound the posterior probability that a network is safe on an input region
(P_safe) and the posterior-predictive decision itself (D_safe), using
interval or linear bound propagation jointly over inputs and weights.
"""

from .certify import (BoxSet, Certificate, CertifyConfig, Task, box_set,
                      decision_robust, dsafe_bounds_all_classes, dsafe_lower,
                      dsafe_upper, k0_decision_check, median_bounds,
                      output_best, output_worst, psafe_lower, psafe_upper,
                      uncertainty_check)
from .net import LayerSpec, Network, ShapeError, forward, softmax
from .posterior import (GaussianPosterior, SamplePosterior, WeightBox,
                        bonferroni_bounds, box_mass, disjointify, make_box)
from .propagate import ibp_forward, lbp_forward
from .search import (RadiusResult, RadiusSearchConfig, max_robust_radius,
                     min_unrobust_radius)
from .spec import (Box, InputBox, OutputSpec, argmax_spec, contains, excludes,
                   linf_ball)
from .trainer import HmcConfig, TrainConfig, fit_vi, sample_hmc

__version__ = "0.1.0"

__all__ = [
    "BoxSet", "Certificate", "CertifyConfig", "Task", "box_set",
    "decision_robust",
    "dsafe_bounds_all_classes", "dsafe_lower", "dsafe_upper",
    "k0_decision_check", "median_bounds", "output_best", "output_worst",
    "psafe_lower", "psafe_upper", "uncertainty_check",
    "LayerSpec", "Network", "ShapeError", "forward", "softmax",
    "GaussianPosterior", "SamplePosterior", "WeightBox",
    "bonferroni_bounds", "box_mass", "disjointify", "make_box",
    "ibp_forward", "lbp_forward",
    "RadiusResult", "RadiusSearchConfig", "max_robust_radius",
    "min_unrobust_radius",
    "Box", "InputBox", "OutputSpec", "argmax_spec", "contains", "excludes",
    "linf_ball",
    "HmcConfig", "TrainConfig", "fit_vi", "sample_hmc",
]
