"""Test-support utilities shipped with the package.

:mod:`repro.testing.faults` is the deterministic fault-injection harness
the robustness test suites drive; it lives in the package (not under
``tests/``) because its injection points are compiled into production
code paths and its environment-variable protocol must be importable from
process-pool workers and CLI subprocesses alike.

:mod:`repro.testing.oracles` holds the reference miners the differential
suites check production mining against; it is not imported here, so the
runtime never loads it.
"""

from .faults import (
    FAULT_EXIT_CODE,
    Fault,
    InjectedFault,
    corrupt_artifact,
    fault_point,
    faults_env,
    injected_faults,
)

__all__ = [
    "FAULT_EXIT_CODE",
    "Fault",
    "InjectedFault",
    "corrupt_artifact",
    "fault_point",
    "faults_env",
    "injected_faults",
]
