"""Couplings, local impurities, and sector Hamiltonians for the driven chain.

The model is an open spin-1/2 chain with nearest and next-nearest
neighbour Heisenberg exchange, a longitudinal magnetic field, and an
electrically tunable z-axis Dzyaloshinskii-Moriya (DM) term on the
nearest-neighbour bonds:

    H = - sum_i J1_i S_i.S_{i+1} - sum_i J2_i S_i.S_{i+2}
        + B sum_i S_i^z + E sum_i (S_i x S_{i+1})^z

Total S^z is conserved, so H block-diagonalizes over excitation number;
``build_hamiltonian`` assembles the dense block for one sector, and its
bond table is where the matrix-element rules are stated.  In the
excitation picture the exchange terms give real hopping -J/2 plus Ising
diagonals, while the DM term turns the nearest-neighbour hopping complex:
+iE/2 for an excitation moving down the chain (j -> i on the ordered bond
(i, i+1)) and -iE/2 for the reverse, from
(S_i x S_j)^z = (i/2)(S_i^+ S_j^- - S_i^- S_j^+).

Impurities model a locally compressed (type1) or elongated (type2) region
around one site: the bonds *surrounding* the impurity are rescaled while
the impurity's own couplings stay untouched.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .basis import ExcitationBasis, enumerate_basis

__all__ = [
    "FieldError",
    "CouplingProfile",
    "ImpuritySpec",
    "ChainParams",
    "uniform_profile",
    "apply_impurity",
    "impurity_from_strength",
    "default_impurity_site",
    "build_hamiltonian",
    "chirality_operator",
    "vacuum_energy",
    "IMPURITY_KINDS",
]

IMPURITY_KINDS = ("type1", "type2")


class FieldError(ValueError):
    """A value a parameter check rejects; ``field`` names the field or parameter."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _require_finite(obj, *names: str):
    """Raise FieldError on the first of ``obj``'s fields ``names`` that is NaN or +-inf."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise FieldError(name, f"{name} must be finite, got {getattr(obj, name)}")


def _require_count(name: str, value, least: int = 0):
    """Raise FieldError on ``name`` unless ``value`` is an integer >= ``least``, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise FieldError(name, f"{name} must be an integer, got {value!r}")
    if value < least:
        raise FieldError(name, f"{name} must be >= {least}, got {value}")


def _require_choice(name: str, value, choices: tuple, what: str = ""):
    """Raise FieldError on ``name`` unless ``value`` is one of ``choices`` (a set whose first
    entry is its default, where it has one); ``what``, if given, names it in the message."""
    if value not in choices:
        raise FieldError(name, f"unknown {what or name} {value!r}; expected one of {choices}")


def _require_grid(name: str, values, positive: bool = False) -> tuple[float, ...]:
    """Raise FieldError on ``name`` unless ``values`` is a nonempty 1-d grid of finite,
    strictly increasing numbers, positive if ``positive``; return them as a tuple of floats."""
    try:
        grid = np.asarray(values, dtype=float)
    except (TypeError, ValueError):                 # not numbers, or a ragged nesting
        raise FieldError(name, f"{name} must be a 1-d sequence of numbers") from None
    if grid.ndim != 1:
        raise FieldError(name, f"{name} must be 1-d, got shape {grid.shape}")
    if grid.size == 0:
        raise FieldError(name, f"{name} must be nonempty")
    if not np.all(np.isfinite(grid)):
        raise FieldError(name, f"{name} values must be finite")
    if np.any(grid[1:] <= grid[:-1]):
        raise FieldError(name, f"{name} must be strictly increasing")
    if positive and grid[0] <= 0:
        raise FieldError(name, f"{name} values must be positive")
    return tuple(grid.tolist())


@dataclass(frozen=True)
class CouplingProfile:
    """Per-bond couplings: ``j1_bonds[i-1]`` is bond (i, i+1), ``j2_bonds[i-1]`` is (i, i+2)."""

    n_sites: int
    j1_bonds: tuple[float, ...]
    j2_bonds: tuple[float, ...]

    def __post_init__(self):
        if self.n_sites < 2:
            raise FieldError("n_sites", f"need at least 2 sites, got {self.n_sites}")
        if len(self.j1_bonds) != self.n_sites - 1:
            raise FieldError("j1_bonds", "j1_bonds must have one entry per nearest-neighbour bond")
        if len(self.j2_bonds) != max(self.n_sites - 2, 0):
            raise FieldError("j2_bonds", "j2_bonds must have one entry per next-nearest bond")
        for name in ("j1_bonds", "j2_bonds"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise FieldError(name, f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class ImpuritySpec:
    """Bond rescalings around a single impurity site.

    ``ratio_nn`` scales the nearest-neighbour bonds one step away from the
    impurity's own bonds.  ``ratio_nnn_strong`` is the strengthened (>= 1)
    next-nearest ratio and ``ratio_nnn_weak`` the weakened (0 < r <= 1)
    one; which next-nearest bonds they land on depends on the kind:

    * ``type1`` (compression): the two outer NNN bonds spanning toward the
      impurity are strengthened, the single NNN bond bridging across it is
      weakened, and ratio_nn >= 1.
    * ``type2`` (elongation): the placement is swapped, the bridging bond
      is strengthened and the outer pair weakened, and 0 < ratio_nn <= 1.
    """

    kind: str
    site: int
    ratio_nn: float
    ratio_nnn_strong: float
    ratio_nnn_weak: float

    def __post_init__(self):
        _require_choice("kind", self.kind, IMPURITY_KINDS, "impurity kind")
        _require_finite(self, "ratio_nn", "ratio_nnn_strong", "ratio_nnn_weak")
        if not self.ratio_nnn_strong >= 1.0:
            raise FieldError("ratio_nnn_strong", "ratio_nnn_strong must be >= 1")
        if not 0.0 < self.ratio_nnn_weak <= 1.0:
            raise FieldError("ratio_nnn_weak", "ratio_nnn_weak must lie in (0, 1]")
        if self.kind == "type1" and not self.ratio_nn >= 1.0:
            raise FieldError("ratio_nn", "type1 impurity requires ratio_nn >= 1 (compressed bonds)")
        if self.kind == "type2" and not 0.0 < self.ratio_nn <= 1.0:
            raise FieldError("ratio_nn", "type2 impurity requires 0 < ratio_nn <= 1 (elongated)")


@dataclass(frozen=True)
class ChainParams:
    """Coupling profile plus the uniform fields: DM strength E and magnetic field B."""

    profile: CouplingProfile
    dm_field: float = 0.0
    b_field: float = 0.0

    def __post_init__(self):
        _require_finite(self, "dm_field", "b_field")


def uniform_profile(n_sites: int, j1: float, j2: float) -> CouplingProfile:
    """Profile with every NN bond equal to j1 and every NNN bond equal to j2."""
    return CouplingProfile(
        n_sites=n_sites,
        j1_bonds=(float(j1),) * (n_sites - 1),
        j2_bonds=(float(j2),) * max(n_sites - 2, 0),
    )


def default_impurity_site(n_sites: int) -> int:
    """Mid-chain placement: site N//2 + 1 (site 6 on a 10-site chain)."""
    return n_sites // 2 + 1


def impurity_from_strength(kind: str, site: int, strength: float) -> ImpuritySpec:
    """Single-parameter impurity family used by the strength sweeps.

    ``strength`` is the ratio of the strengthened bonds, in [1, 5); the
    weakened bonds co-vary as 1 - (strength - 1)/4, which strength 5 would
    cut.  This linkage reproduces the studied ratio triples: strength 1.7 ->
    weak 0.825, 2.1 -> 0.725, 3.0 -> 0.50.  For type1 the nearest bonds
    follow the strengthened ratio, for type2 the weakened one.
    """
    if not 1.0 <= strength < 5.0:
        raise FieldError("strength", f"impurity strength must lie in [1, 5), got {strength}")
    weak = 1.0 - (strength - 1.0) / 4.0
    return ImpuritySpec(kind, site, ratio_nn=strength if kind == "type1" else weak,
                        ratio_nnn_strong=strength, ratio_nnn_weak=weak)


def apply_impurity(profile: CouplingProfile, spec: ImpuritySpec) -> CouplingProfile:
    """Rescale the bonds surrounding the impurity site.

    With the impurity at site p, the affected bonds are:

    * NN bonds (p-2, p-1) and (p+1, p+2): scaled by ratio_nn.
    * NN bonds (p-1, p) and (p, p+1): the impurity's own, unchanged.
    * NNN outer pair (p-3, p-1) and (p+1, p+3): ratio_nnn_strong for
      type1, ratio_nnn_weak for type2.
    * NNN bridging bond (p-1, p+1): ratio_nnn_weak for type1,
      ratio_nnn_strong for type2.
    * NNN bonds (p-2, p) and (p, p+2): the impurity's own, unchanged.

    Bonds that would fall outside the chain are skipped, so an impurity
    near the boundary simply has a clipped window.
    """
    n = profile.n_sites
    p = spec.site
    if not 2 <= p <= n - 1:
        raise FieldError("site", f"impurity site must lie in [2, {n - 1}], got {p}")

    if spec.kind == "type1":
        outer, bridge = spec.ratio_nnn_strong, spec.ratio_nnn_weak
    else:
        outer, bridge = spec.ratio_nnn_weak, spec.ratio_nnn_strong

    # bond (i, i+1) lives at j1[i-1] and bond (i, i+2) at j2[i-1]
    j1 = list(profile.j1_bonds)
    j2 = list(profile.j2_bonds)
    for bonds, i, factor in ((j1, p - 2, spec.ratio_nn), (j1, p + 1, spec.ratio_nn),
                             (j2, p - 3, outer), (j2, p + 1, outer), (j2, p - 1, bridge)):
        if 1 <= i <= len(bonds):
            bonds[i - 1] *= factor

    return CouplingProfile(n, tuple(j1), tuple(j2))


def build_hamiltonian(params: ChainParams, basis: ExcitationBasis) -> np.ndarray:
    """Dense Hamiltonian block in one excitation sector.

    Every bond is one row (lo, hi, J, E) of a table: the NN bonds (i, i+1)
    carry the DM field, the NNN bonds (i, i+2) carry none.  For a
    configuration with up-set A, each bond adds -J * s/4 to the diagonal,
    with s = +1 when lo, hi are on the same side of A and -1 otherwise, and
    where exactly one end is up it hops the excitation across with
    amplitude -J/2 + iE/2 down the chain (hi -> lo) or -J/2 - iE/2 up it.
    The diagonal starts from B*(k - N/2), takes the bonds in table order
    and is then added to the zero entry.  The result is exactly Hermitian
    by construction.
    """
    profile = params.profile
    n = profile.n_sites
    if basis.n_sites != n:
        raise FieldError("basis", f"basis is for {basis.n_sites} sites but params describe {n}")
    bonds = ([(i, i + 1, j, params.dm_field) for i, j in enumerate(profile.j1_bonds, 1)]
             + [(i, i + 2, j, 0.0) for i, j in enumerate(profile.j2_bonds, 1)])
    h = np.zeros((basis.size, basis.size), dtype=complex)
    b_diag = params.b_field * (basis.n_excitations - n / 2.0)

    for col, config in enumerate(basis.configs):
        up = set(config)
        diag = b_diag
        for lo, hi, j, field in bonds:
            same = (lo in up) == (hi in up)
            diag += -j * (0.25 if same else -0.25)
            if not same:
                # an excitation hops down the chain, hi -> lo, or up, lo -> hi
                src, dst, dm = (hi, lo, field) if hi in up else (lo, hi, -field)
                moved = tuple(sorted(up - {src} | {dst}))
                h[basis.index_map[moved], col] += -j / 2.0 + 1j * dm / 2.0
        h[col, col] += diag

    return h


def chirality_operator(basis: ExcitationBasis) -> np.ndarray:
    """Bare kick generator sum_i (S_i x S_{i+1})^z restricted to the sector.

    Equivalent to ``build_hamiltonian`` with all exchange couplings and the
    magnetic field set to zero and unit DM strength.
    """
    n = basis.n_sites
    zero = CouplingProfile(n, (0.0,) * (n - 1), (0.0,) * max(n - 2, 0))
    return build_hamiltonian(ChainParams(zero, dm_field=1.0, b_field=0.0), basis)


def vacuum_energy(params: ChainParams) -> float:
    """Energy of the all-down state: B*(0 - N/2) - sum(J1)/4 - sum(J2)/4.

    This is the k=0 block of ``build_hamiltonian``, its only entry; no
    hopping term reaches the vacuum.
    """
    return float(build_hamiltonian(params, enumerate_basis(params.profile.n_sites, 0))[0, 0].real)

