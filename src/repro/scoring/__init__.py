"""Adversarial-traffic scoring: distilled signatures + line-rate stream scoring.

The deployable half of the pipeline (ROADMAP item 4): distill a CASTAN
analysis into :class:`~repro.scoring.signatures.AdversarialSignature`
predicates, then score live traffic against them at columnar speed —
:mod:`repro.scoring.distill` builds and replay-calibrates the signatures,
:mod:`repro.scoring.scorer` executes them over packet streams, and
:mod:`repro.scoring.jobs` wires both into the service's ``POST /score``
job and the ``tools/repro_score.py`` CLI.
"""
