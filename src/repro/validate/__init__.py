"""Validation subsystem: golden fingerprints, schedule-perturbation
sanitizer, cross-mode differential conformance, prediction-tier
differential, and inline MPI invariants.

The parts answer one question from six angles — *did this change
alter simulated results it should not have?*

* :mod:`repro.validate.golden` — canonical result fingerprints checked
  into ``tests/golden/``; any semantic drift in the model fails CI with
  the exact field that moved.
* :mod:`repro.validate.perturb` — a race detector for the DES: re-runs a
  job under seeded same-timestamp shuffles and asserts the fingerprint
  does not move (a well-formed model is invariant under every legal
  schedule).
* :mod:`repro.validate.differential` — runs the full engine flag matrix
  (fast path × matcher × memoization × fast-forward × workers) and
  diffs complete traces; the fast flavors must be bit-identical to the
  references.
* :mod:`repro.validate.prediction` — holds every :mod:`repro.predict`
  tier to its own stated error band against DES ground truth (golden
  corpus + fresh interpolation holdouts).
* :mod:`repro.validate.serving` — replays golden specs through a
  loopback ``repro serve`` HTTP server and holds every ladder path
  (cold DES, cache hit, band-negotiated prediction) to the fingerprint
  and band contracts of a direct run.
* :mod:`repro.validate.scenario` — the scenario subsystem is pure
  plumbing: named-scenario runs must be fingerprint-identical to their
  inline-flag equivalents, and every zoo parameter file must load,
  round-trip exactly, and price through Tier A.
* :mod:`repro.validate.invariants` — inline MPI conformance checks
  (non-overtaking, conservation, collective completeness, monotonic
  clocks) attachable to any run via ``run(..., invariants=True)``.

:mod:`repro.validate.lanes` registers the checks ``repro validate``
runs as named lanes (``--lane NAME``).

Only the invariants are imported eagerly: the other modules pull in the
harness package, which itself lazily imports the checker, and keeping
this ``__init__`` light preserves that cycle-free layering.
"""

from __future__ import annotations

from repro.validate.invariants import InvariantChecker, InvariantViolation

_LAZY = {
    "fingerprint": "repro.validate.golden",
    "golden_cases": "repro.validate.golden",
    "record_diff": "repro.validate.golden",
    "regenerate": "repro.validate.golden",
    "sanitize": "repro.validate.perturb",
    "differential_run": "repro.validate.differential",
    "observability_differential": "repro.validate.differential",
    "executor_differential": "repro.validate.differential",
    "prediction_differential": "repro.validate.prediction",
    "serving_differential": "repro.validate.serving",
    "scenario_differential": "repro.validate.scenario",
    "zoo_validation": "repro.validate.scenario",
}

__all__ = ["InvariantChecker", "InvariantViolation", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
