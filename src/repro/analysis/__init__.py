"""repro.analysis — project-specific static analysis (``reprolint``).

One pass: every file is parsed once into a
:class:`~repro.analysis.project.ProjectIndex` (module graph, call
graph, lock-context dataflow), and every rule in
:data:`~repro.analysis.rules.RULES` runs once over it — registered
metric names (R5) and the mutex discipline of the serving paths:
lock order / self-deadlock (R7), ``# guarded-by:`` attribute contexts
(R9), CSR views used across graph mutations and the calls that hide
them (R10), and metric-registry access under a mutex (R11).

Run it as ``python -m repro.analysis src``; see docs/DEVELOPMENT.md
for each rule's rationale.
"""

from repro.analysis.engine import exit_code, run_paths, run_sources
from repro.analysis.rules import RULES, Finding, Rule

__all__ = ["Finding", "RULES", "Rule", "exit_code", "run_paths", "run_sources"]
