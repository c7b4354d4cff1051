"""Start a plain Python child that resolves the same ``repro`` as we do.

Every process of a fleet other than the front door begins here: the
shard workers (:class:`~repro.shard.backend.ProcessShard`) and the
one-shot graph-image builder (:func:`~repro.shard.image.build_image`).
A child is ``python -c <code>`` — no ``multiprocessing`` bootstrap, so
no tracker process beside the fleet, no re-import of the parent's main
module, and nothing pickled onto the command line.
"""

from __future__ import annotations

import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import IO

import repro


def python_child(
    code: str,
    *,
    pass_fds: Sequence[int] = (),
    stdout: int | IO[bytes] | None = None,
) -> "subprocess.Popen[bytes]":
    """Run ``code`` in a new interpreter with this one's flags.

    The child's ``sys.path`` is led by the directory of the very
    ``repro`` this process runs — set in the ``-c`` code, not through
    ``PYTHONPATH``, which a parent running under ``-E`` / ``-I`` would
    pass on only to have the child (given the same flag) ignore it.
    Only ``pass_fds`` (and the standard streams; stdin is ``/dev/null``)
    cross into the child, so a pipe end meant for one worker is never
    held open by another.
    """
    root = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.Popen(
        [
            sys.executable,
            # the helper multiprocessing itself uses to mirror -O, -X dev, ...
            *subprocess._args_from_interpreter_flags(),
            "-c",
            f"import sys; sys.path.insert(0, {root!r}); {code}",
        ],
        stdin=subprocess.DEVNULL,
        stdout=stdout,
        pass_fds=tuple(pass_fds),
    )
