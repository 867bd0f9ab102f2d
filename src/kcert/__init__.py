"""Exact-arithmetic certificates for gluing idempotents over filtered
algebras, the connecting homomorphism, and six-term exactness witnesses,
all verified by recomputation rather than trusted."""

from .scalars import Rat, rat

__all__ = ["Rat", "rat"]
__version__ = "0.1.0"
