"""Natural-deduction proof objects and their checking; comprehension and
identity instances are recognised as written, theory axioms are named."""

from hotk.proofkit.checker import (ProofObject, ProofStep, ProofVerdict,
                                   axiom_instance, check_proof, load_proof,
                                   loads_proof)
from hotk.proofkit.fixtures import (FixtureReport, FixtureResult, load_fixture,
                                    verify_fixture_suite)

__all__ = [
    "ProofObject", "ProofStep", "ProofVerdict", "check_proof", "load_proof",
    "loads_proof", "FixtureReport", "FixtureResult", "load_fixture",
    "verify_fixture_suite", "axiom_instance",
]
