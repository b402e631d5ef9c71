"""Reverse-engineering toolkit: the paper's black-box methodology.

Tools for probing the simulated hardware exactly the way the paper probes
silicon: stld sequences and their run-length notation, timing-based
execution-type classification, counter readout by probing, eviction-set
sizing, state-machine validation, and hash-function recovery.
"""
