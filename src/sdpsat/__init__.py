"""MAXSAT solving with a low-rank semidefinite relaxation inside branch and bound."""

__version__ = "0.1.0"
