"""Exact arithmetic for cubic extensions of F_q(x): canonical normal forms,
Galois and irreducibility criteria, explicit Galois actions, ramification,
genus, place splitting, and integral bases."""

# cfftool is not imported here: `python -m cubicff.cfftool` would then find
# it in sys.modules before running it as __main__, and warn
from . import action, galoiskit, gfq, intbasis, normalform, placegeom, polyrat

__all__ = [
    "gfq",
    "polyrat",
    "normalform",
    "galoiskit",
    "action",
    "placegeom",
    "intbasis",
    "cfftool",
]
