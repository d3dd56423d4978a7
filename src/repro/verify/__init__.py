"""Verification: BDD-based combinational equivalence checking (the paper's
``-verify`` option) plus bit-parallel simulation -- exhaustive on small
input counts, random-pattern fallback for circuits whose global BDDs blow
up (the paper could not verify C6288 either way and fell back to per-step
checks).  :mod:`repro.verify.runner` is the shared entry point used by the
flow (``BDSOptions.verify``), the CLI and the differential fuzzer."""

from repro.verify.cec import (DEFAULT_BUDGET, EquivalenceResult,
                              check_equivalence)
from repro.verify.runner import (
    VERIFY_MODES,
    VerifyError,
    VerifyOutcome,
    require_equivalent,
    verify_networks,
)
from repro.verify.simulate import EXHAUSTIVE_LIMIT, simulate_equivalence

__all__ = [
    "DEFAULT_BUDGET",
    "EXHAUSTIVE_LIMIT",
    "EquivalenceResult",
    "VERIFY_MODES",
    "VerifyError",
    "VerifyOutcome",
    "check_equivalence",
    "require_equivalent",
    "simulate_equivalence",
    "verify_networks",
]
