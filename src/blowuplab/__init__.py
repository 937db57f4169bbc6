"""Blow-up rate laws for the k-corotational harmonic map heat flow.

Two halves that check each other:

- a matched-asymptotics pipeline (params -> profile -> spectral ->
  coupling -> rates) that predicts the blow-up rate law in closed form
  up to data-dependent constants, and
- a direct simulation of the radial PDE on a logarithmic grid (meshsim) whose
  fitted rates are compared against those predictions.
"""

from . import coupling, errors, meshsim, params, profile, rates, spectral
from .errors import BlowupLabError
from .params import ModelParams, classify, derive, eigenvalue

__version__ = "0.1.0"

__all__ = [
    "BlowupLabError",
    "ModelParams",
    "classify",
    "coupling",
    "derive",
    "eigenvalue",
    "errors",
    "meshsim",
    "params",
    "profile",
    "rates",
    "spectral",
]
