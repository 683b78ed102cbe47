"""Seeded chaos scenarios with pass/fail SLO gates.

See DESIGN.md §11: :mod:`repro.scenarios.spec` declares timelines,
:mod:`repro.scenarios.engine` executes them against both substrates,
:mod:`repro.scenarios.library` holds the committed named scenarios and
:mod:`repro.scenarios.report` turns a batch into
``BENCH_scenarios.json`` for the regression gate.
"""
