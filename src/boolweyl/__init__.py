"""Exact algebra of Boolean functions and their differential operators over GF(2)."""

__version__ = "0.1.0"
