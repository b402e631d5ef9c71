"""The paper's primary contribution: AMD speculative memory access predictors.

This package models the two predictors the paper reverse engineers —
PSFP (Predictive Store Forwarding Predictor) and SSBP (Speculative Store
Bypass Predictor) — along with their shared counter state machine
(TABLE I), the IPA-selection hash (Section III-C) and the per-platform
configuration (TABLE III).
"""
