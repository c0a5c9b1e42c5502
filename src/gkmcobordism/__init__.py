"""Exact rational equivariant cobordism of GKM data with surface corrections."""

__version__ = "0.1.0"
