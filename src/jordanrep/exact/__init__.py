"""Exact scalar, polynomial and matrix arithmetic, and the Taylor series
of the elementary functions with one loop that sums them over powers."""
