"""repro.analysis — project-specific static analysis (``reprolint``).

One pass: every file is parsed once into a
:class:`~repro.analysis.project.ProjectIndex` (module graph, call
graph, lock-context dataflow), and every rule in
:data:`~repro.analysis.rules.RULES` runs once over it — registered
metric names (R5) and the serving runtime's lock discipline: lock
order / self-deadlock (R7), blocking calls under write holds (R8),
``# guarded-by:`` attribute contexts (R9), CSR-snapshot escape across
mutations, calls and lock releases (R10), and metric-registry access
in serving critical sections (R11).

Run it as ``python -m repro.analysis src``; see docs/DEVELOPMENT.md
for each rule's rationale.
"""

from repro.analysis.engine import exit_code, run_paths, run_sources
from repro.analysis.rules import RULES, Finding, Rule

__all__ = ["Finding", "RULES", "Rule", "exit_code", "run_paths", "run_sources"]
