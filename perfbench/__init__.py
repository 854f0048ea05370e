"""Benchmark of the STeF reproduction: see README.md in this directory."""
