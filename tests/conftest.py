import math

import numpy as np
import pytest

from speccert import ControlHamiltonian, HermitianOperator
from speccert.sampling import random_hermitian

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# thresholds that are not a finite number > 0, or not a number at all
HOSTILE_TOLERANCES = [float("nan"), float("inf"), -float("inf"), -1.0, 0.0, "1e-8", [1e-8]]


def make_family(drift, controlled, box) -> ControlHamiltonian:
    return ControlHamiltonian(
        drift=HermitianOperator(np.asarray(drift, dtype=complex)),
        controlled=tuple(HermitianOperator(np.asarray(c, dtype=complex)) for c in controlled),
        box=np.asarray(box, dtype=float),
    )


def random_family(seed: int, n: int, m: int) -> ControlHamiltonian:
    """Unit-norm complex Hermitian family with m controls over the box [-2, 2]^m."""
    rng = np.random.default_rng(seed)
    ops = [HermitianOperator(random_hermitian(rng, n)) for _ in range(m + 1)]
    return ControlHamiltonian(
        drift=ops[0], controlled=tuple(ops[1:]), box=np.array([[-2.0, 2.0]] * m)
    )


def scaled(H: ControlHamiltonian, s: float) -> ControlHamiltonian:
    """The family s*H over the same box: H expressed in an energy unit 1/s times as large."""
    return ControlHamiltonian(
        drift=HermitianOperator(s * H.drift.matrix),
        controlled=tuple(HermitianOperator(s * h.matrix) for h in H.controlled),
        box=H.box,
    )


def half_spread(H: ControlHamiltonian, u) -> float:
    """(lambda_max - lambda_min) / 2 of H(u), from an eigensolve of its own."""
    lam = np.linalg.eigvalsh(H.matrix_at(u))
    return float(lam[-1] - lam[0]) / 2


def step_counts(H: ControlHamiltonian, path, step_limit: float = 0.1) -> list:
    """``propagate``'s steps per segment: the fewest whose size h keeps
    h * half_spread <= step_limit * (1 + 1e-9) at both ends of the segment."""
    counts = []
    for a, b, dur in path.segments():
        spread = max(half_spread(H, a), half_spread(H, b))
        counts.append(max(1, math.ceil(dur * spread / step_limit / (1 + 1e-9))))
    return counts


@pytest.fixture
def two_level_cone() -> ControlHamiltonian:
    """H(u) = u1*sigma_x + u2*sigma_z: single conical intersection at the origin."""
    return make_family(np.zeros((2, 2)), [SIGMA_X, SIGMA_Z], [[-1, 1], [-1, 1]])


@pytest.fixture
def shifted_cone() -> ControlHamiltonian:
    """H(u) = sigma_z + u1*sigma_x + u2*sigma_z: intersection at (0, -1)."""
    return make_family(SIGMA_Z, [SIGMA_X, SIGMA_Z], [[-2, 2], [-2, 2]])


@pytest.fixture
def diag_family() -> ControlHamiltonian:
    """Diagonal-only family: eigenvalues u1, u1+1, 2; never generates the full algebra."""
    return make_family(
        np.diag([0.0, 1.0, 2.0]),
        [np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3))],
        [[-0.5, 0.5], [-0.5, 0.5]],
    )


@pytest.fixture
def quadratic_contact_family():
    """Levels 1,2 degenerate at the origin, split only at second order.

    Both controls couple the degenerate pair exclusively through the third
    level (2 energy units away), so the gap opens as t^2/2 along every
    direction: second-order perturbation theory gives the effective pair
    Hamiltonian -(t^2/2)[[v1^2, v1 v2], [v1 v2, v2^2]] whose eigenvalue
    spread is (t^2/2)(v1^2+v2^2).
    """
    h1 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
    h2 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
    return make_family(np.diag([0.0, 0.0, 2.0]), [h1, h2], [[-1, 1], [-1, 1]])


@pytest.fixture
def three_level_chain() -> ControlHamiltonian:
    """Real symmetric 3-level family with conical intersections for both level pairs."""
    drift = np.diag([0.0, 0.0, 1.5])
    slope = np.diag([1.0, 0.0, -1.0])
    coupling = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
    return make_family(drift, [slope, coupling], [[-0.6, 1.35], [-0.75, 0.75]])
