"""Brute-force reference implementations used by the test suite.

Everything here works in the full 2**n product space with explicit
operator tensors and dense matrix exponentials, so it shares no code
path with the package under test.  Conventions match the package:
sites are numbered 1..n left to right, site 1 is the leftmost kron
factor, and a raised spin at site s sets bit 2**(n - s) so the
all-down state has index 0.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

ID2 = np.eye(2, dtype=complex)
SZ = np.diag([-0.5, 0.5]).astype(complex)
SPLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SMINUS = SPLUS.T.conj()
SX = 0.5 * (SPLUS + SMINUS)
SY = -0.5j * (SPLUS - SMINUS)


def site_op(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a single-site operator at 1-based position `site`."""
    out = np.array([[1.0 + 0.0j]])
    for s in range(1, n + 1):
        out = np.kron(out, op if s == site else ID2)
    return out


def two_site(op_a: np.ndarray, a: int, op_b: np.ndarray, b: int, n: int) -> np.ndarray:
    return site_op(op_a, a, n) @ site_op(op_b, b, n)


def heisenberg_bond(a: int, b: int, n: int) -> np.ndarray:
    return (two_site(SX, a, SX, b, n)
            + two_site(SY, a, SY, b, n)
            + two_site(SZ, a, SZ, b, n))


def full_chirality(n: int) -> np.ndarray:
    """z component of the summed cross product on nearest-neighbour bonds."""
    d = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(1, n):
        d += two_site(SX, i, SY, i + 1, n) - two_site(SY, i, SX, i + 1, n)
    return d


def full_hamiltonian(j1: list[float], j2: list[float], b: float, e: float,
                     n: int) -> np.ndarray:
    """Chain Hamiltonian on the full product space.

    j1 has n-1 entries for bonds (i, i+1); j2 has n-2 entries for
    bonds (i, i+2).  Exchange terms enter with a minus sign, the
    uniform field couples to total S^z, and `e` multiplies the
    chirality operator.
    """
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(1, n):
        h -= j1[i - 1] * heisenberg_bond(i, i + 1, n)
    for i in range(1, n - 1):
        h -= j2[i - 1] * heisenberg_bond(i, i + 2, n)
    if b:
        for i in range(1, n + 1):
            h += b * site_op(SZ, i, n)
    if e:
        h += e * full_chirality(n)
    return h


def full_index(config: tuple[int, ...], n: int) -> int:
    """Product-basis index of the state with raised spins at `config`."""
    return sum(2 ** (n - s) for s in config)


def basis_state(config: tuple[int, ...], n: int) -> np.ndarray:
    psi = np.zeros(2 ** n, dtype=complex)
    psi[full_index(config, n)] = 1.0
    return psi


def evolve(h: np.ndarray, psi: np.ndarray, t: float) -> np.ndarray:
    return expm(-1j * t * h) @ psi


def kick_unitary(j1: list[float], j2: list[float], b: float, e0: float,
                 e1: float, tau: float, n: int,
                 convention: str = "hamiltonian_tau") -> np.ndarray:
    """One driving period on the full space, kick applied after the drift."""
    d = full_chirality(n)
    if convention == "hamiltonian_tau":
        h0 = full_hamiltonian(j1, j2, b, e0, n)
        u0 = expm(-1j * tau * h0)
    elif convention == "literal_eq5":
        h_static = full_hamiltonian(j1, j2, b, 0.0, n)
        u0 = expm(-1j * (tau * h_static + e0 * d))
    else:
        raise ValueError(f"unknown convention {convention!r}")
    u1 = expm(-1j * e1 * d)
    return u1 @ u0


def receiver_density(psi: np.ndarray, n: int) -> np.ndarray:
    """Reduced density matrix of the last two sites.

    Columns of the reshape are indexed by 2*b_{n-1} + b_n with bit
    value 1 meaning a raised spin, i.e. (down-down, down-up, up-down,
    up-up).
    """
    m = psi.reshape(2 ** (n - 2), 4)
    return m.T @ m.conj()


def last_site_density(psi: np.ndarray, n: int) -> np.ndarray:
    m = psi.reshape(2 ** (n - 1), 2)
    return m.T @ m.conj()


def bell_target(family: str, c0: complex, c1: complex) -> np.ndarray:
    """Receiver-pair target state in the (dd, du, ud, uu) basis."""
    vec = np.zeros(4, dtype=complex)
    if family == "omega1":
        vec[1], vec[2] = c0, c1
    elif family == "omega2":
        vec[0], vec[3] = c0, c1
    else:
        raise ValueError(f"unknown family {family!r}")
    return vec


def bell_sender_state(family: str, c0: complex, c1: complex,
                      n: int) -> np.ndarray:
    """Initial full-space state with the pair encoded on sites 1 and 2.

    c0 weights |01> (for omega1 the excitation sits at site 2, matching
    the receiver target where it sits at site n) and c1 weights |10>.
    """
    if family == "omega1":
        return c0 * basis_state((2,), n) + c1 * basis_state((1,), n)
    if family == "omega2":
        return c0 * basis_state((), n) + c1 * basis_state((1, 2), n)
    raise ValueError(f"unknown family {family!r}")


def bell_fidelity_full(psi: np.ndarray, family: str, c0: complex, c1: complex,
                       n: int) -> float:
    """<target| rho_receiver |target> straight from the definition."""
    rho = receiver_density(psi, n)
    target = bell_target(family, c0, c1)
    return float(np.real(target.conj() @ rho @ target))


def bloch_state(theta: float, phi: float) -> tuple[complex, complex]:
    """(down, up) amplitudes of a single-qubit state on the Bloch sphere."""
    return (np.cos(theta / 2.0) + 0.0j,
            np.exp(1j * phi) * np.sin(theta / 2.0))


def single_qubit_fidelity_full(psi: np.ndarray, theta: float, phi: float,
                               n: int) -> float:
    """Receiver-site overlap with the sender's Bloch state."""
    rho = last_site_density(psi, n)
    a_down, a_up = bloch_state(theta, phi)
    target = np.array([a_down, a_up])
    return float(np.real(target.conj() @ rho @ target))


def single_qubit_sender_state(theta: float, phi: float, n: int) -> np.ndarray:
    a_down, a_up = bloch_state(theta, phi)
    return a_down * basis_state((), n) + a_up * basis_state((1,), n)


def sampled_family_average(family: str, unitary: np.ndarray, n: int,
                           n_samples: int = 10_000, seed: int = 0) -> float:
    """Monte Carlo mean transfer fidelity over Haar-random inputs.

    `unitary` is the full 2**n propagator.  Each sample draws a Haar
    random pair (c0, c1), prepares the sender state of `family` from it
    (for omega0 the Bloch state with the same |c0|, |c1| and relative
    phase), evolves it and scores the receiver against the input.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    total = 0.0
    for c0, c1 in z:
        if family == "omega0":
            theta = 2.0 * np.arctan2(abs(c1), abs(c0))
            phi = np.angle(c1) - np.angle(c0)
            psi = unitary @ single_qubit_sender_state(theta, phi, n)
            total += single_qubit_fidelity_full(psi, theta, phi, n)
        else:
            psi = unitary @ bell_sender_state(family, c0, c1, n)
            total += bell_fidelity_full(psi, family, c0, c1, n)
    return total / n_samples
