"""Workloads: SPEC2017-like instruction mixes and CNN inference victims."""
