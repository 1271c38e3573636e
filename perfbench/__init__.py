"""Benchmark of flowtarget: see README.md in this directory."""
