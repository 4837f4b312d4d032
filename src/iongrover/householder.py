"""Exact Householder-reflection operators on the register space.

Both reflections act only within the ion manifold (slots 1..N); the ancilla
slot 0 always carries the identity.  ``standard_hr`` is the involutory
reflection 1 - 2|chi><chi| and ``generalized_hr`` replaces the -1 eigenvalue
on chi by an arbitrary phase factor exp(i*phi).  A reflection is kept as the
rank-1 pair (chi, phi) and applied in O(N); its dense matrix is built only
when read.  A unit chi and a finite phi make it unitary to rounding, so only
``Operator``, the dense type of integrated propagators, checks unitarity.
"""

from __future__ import annotations

import cmath
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .model import CouplingVector, DimensionMismatchError, RegisterState, check_number

#: Default unitarity acceptance for freshly built operators.
UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class Operator:
    """Dense unitary on the (N+1)-dimensional register space."""

    matrix: np.ndarray
    unitarity_tol: InitVar[float] = UNITARITY_TOL

    def __post_init__(self, unitarity_tol: float) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        if mat.shape[0] < 3:
            raise ValueError("operator must act on at least 2 ions plus ancilla")
        defect = float(np.linalg.norm(mat.conj().T @ mat - np.eye(len(mat))))
        if not defect <= unitarity_tol:
            raise ValueError(
                f"matrix is not unitary: defect {defect:.3g} > {unitarity_tol:g}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class Reflection:
    """1 + (exp(i*phi) - 1)|chi><chi| on the ion manifold, identity on the ancilla.

    Like ``Operator`` it exposes ``matrix``, built here on first read.
    """

    chi: CouplingVector
    phi: float
    #: exp(i*phi) - 1, the coefficient of the rank-1 update
    factor: complex = field(init=False, repr=False)
    #: chi embedded in the register space, ancilla slot 0 empty
    vector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_number(self.phi, "reflection phase")
        c = cmath.exp(1j * self.phi) - 1.0
        v = np.concatenate(([0.0], self.chi.components))
        v.setflags(write=False)
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "factor", c)
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return len(self.vector)

    @cached_property
    def matrix(self) -> np.ndarray:
        mat = np.eye(self.dim, dtype=complex)
        mat += self.factor * np.outer(self.vector, self.vector.conj())
        mat.setflags(write=False)
        return mat


def generalized_hr(chi: CouplingVector, phi: float) -> Reflection:
    """Reflection with eigenvalue exp(i*phi) on chi, identity elsewhere."""
    return Reflection(chi, phi)


def standard_hr(chi: CouplingVector) -> Reflection:
    """The involutory reflection 1 - 2|chi><chi| on the manifold."""
    return generalized_hr(chi, np.pi)


def apply(op: Reflection, state: RegisterState) -> RegisterState:
    if op.dim != state.n_ions + 1:
        raise DimensionMismatchError(
            f"operator dim {op.dim} does not match register size {state.n_ions + 1}"
        )
    y, v = state.amplitudes, op.vector
    return RegisterState(y + (op.factor * np.vdot(v, y)) * v)
