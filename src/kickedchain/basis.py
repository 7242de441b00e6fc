"""Excitation-number bases for an open spin-1/2 chain.

The chain Hamiltonian conserves total S^z, so dynamics started from the
fully polarized (all-down) state never leaves the subspace with a fixed
number k of flipped spins.  Only k = 0, 1, 2 are needed here: the vacuum,
single-excitation and two-excitation sectors, of dimension 1, N and
N(N-1)/2.  Configurations are labelled by the ascending tuple of excited
site indices, with sites numbered 1..N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["ExcitationBasis", "enumerate_basis", "index_of"]


@dataclass(frozen=True)
class ExcitationBasis:
    """Ordered basis of k-excitation configurations on an N-site chain.

    ``configs`` is lexicographically sorted, so ``configs[0]`` is the
    left-most configuration (e.g. ``(1, 2)`` for k=2) and ``index_map``
    is its exact positional inverse.
    """

    n_sites: int
    n_excitations: int
    configs: tuple[tuple[int, ...], ...]
    index_map: dict[tuple[int, ...], int] = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.configs)

    def __post_init__(self):
        if len(self.configs) != math.comb(self.n_sites, self.n_excitations):
            raise ValueError("config list does not span the sector")


def enumerate_basis(n_sites: int, n_excitations: int) -> ExcitationBasis:
    """All k-excitation configurations of an N-site chain (N >= 2), in lexicographic order.

    Only k = 0, 1 and 2 are supported: larger sectors are never reached from
    the prepared states, and rejecting them keeps the dense-matrix cost
    model explicit.
    """
    if n_sites < 2:
        raise ValueError(f"need at least 2 sites, got {n_sites}")
    if not 0 <= n_excitations <= 2:
        raise ValueError(f"unsupported sector k={n_excitations}; expected 0, 1 or 2")
    configs = tuple(itertools.combinations(range(1, n_sites + 1), n_excitations))
    index_map = {c: i for i, c in enumerate(configs)}
    return ExcitationBasis(n_sites, n_excitations, configs, index_map)


def index_of(basis: ExcitationBasis, config: Iterable[int]) -> int:
    """Ordinal of a configuration, given as any iterable of site indices."""
    key = tuple(sorted(config))
    try:
        return basis.index_map[key]
    except KeyError:
        raise ValueError(
            f"configuration {key} not in the (N={basis.n_sites}, "
            f"k={basis.n_excitations}) basis"
        ) from None
