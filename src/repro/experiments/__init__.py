"""Experiment drivers: one module per paper table/figure (DESIGN.md E1-E17).

Run them via the ``repro-experiments`` CLI — a parallel, cached campaign
engine (:mod:`repro.experiments.runner`) — or import the modules
directly; every driver takes an explicit ``seed`` and returns an
:class:`repro.experiments.base.ExperimentResult`.  Results serialize to
JSON artifacts (:mod:`repro.experiments.artifacts`), are cached
content-addressed (:mod:`repro.experiments.cache`), and feed the
measured-values tables (:mod:`repro.experiments.report`).  The catalog
of every experiment is docs/experiments.md.
"""
