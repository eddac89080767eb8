"""Numerical tolerances used across the package.

All magic constants live here so that the command line can override them in
one place and reports can record the exact configuration they ran under.
"""
from __future__ import annotations

from typing import NamedTuple


class Tolerances(NamedTuple):
    """Tolerance bundle for the matrix model.

    psd      : slack allowed below zero when testing positive semidefiniteness
    proj     : Frobenius bound on ||P @ P - P|| for admissible projections
    cluster  : eigenvalues closer than this (relative) share a cluster
    kernel   : absolute threshold below which an eigenvalue counts as zero
    comm     : Frobenius bound on commutation residuals
    check    : generic residual threshold for verifier statements
    """

    psd: float = 1e-9
    proj: float = 1e-8
    cluster: float = 1e-8
    kernel: float = 1e-8
    comm: float = 1e-9
    check: float = 1e-8

    def replace(self, **changes: float) -> "Tolerances":
        return self._replace(**changes)

    def to_dict(self) -> dict:
        return dict(self._asdict())


DEFAULT = Tolerances()
