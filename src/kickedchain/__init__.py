"""Quantum state transfer through a periodically kicked multiferroic spin chain.

The package simulates an open spin-1/2 chain with nearest and
next-nearest neighbour exchange whose Dzyaloshinskii-Moriya term is
driven by periodic electric-field kicks, and scores how well the chain
transports a single qubit or a Bell pair from one end to the other.

Layered bottom-up: ``basis`` (excitation sectors) -> ``model``
(couplings, impurities, sector Hamiltonians) -> ``propagator`` (exact
unitary evolution and the Floquet kick step) -> ``sweep`` (grid searches,
periodograms) -> ``cli`` (config-driven runs).  ``fidelity`` (the family
table and the closed-form fidelities) sits on ``basis`` and on ``model``'s
choice rule and feeds ``sweep``; the partial-trace oracle that checks it is
test code, in ``tests/partial_trace.py``.

The public surface is each layer's ``__all__``, declared once in its own
module: the package re-exports every such name, and its ``__all__`` is
their union.
"""

from . import basis, cli, fidelity, model, propagator, sweep
from .basis import *
from .model import *
from .propagator import *
from .fidelity import *
from .sweep import *
from .cli import *

__all__ = [name for layer in (basis, model, propagator, fidelity, sweep, cli)
           for name in layer.__all__]
__version__ = "0.1.0"
