"""Start a plain Python child that resolves the same ``repro`` as we do.

Every process of a fleet other than the front door begins here: the
shard workers (:class:`~repro.shard.backend.ProcessShard`) and the
one-shot graph-image builder (:func:`~repro.shard.image.build_image`).
A child is ``python -c <code>`` — no ``multiprocessing`` bootstrap, so
no tracker process beside the fleet, no re-import of the parent's main
module, and nothing pickled onto the command line.  Nor does a child
load OpenSSL (:data:`UNLOADED_MODULES`).
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import IO

import repro

#: glibc gives every thread that allocates under contention a malloc
#: arena of its own, and what one arena frees the others never reuse.
#: When a worker built on its main thread and served from others, the
#: build's and each index compaction's frees stayed stranded (≈ 16 MB
#: of a 64 MB FORA+inc worker).  A worker now builds and serves on one
#: thread; the cap stays for any child that does start threads.
#: Only glibc reads the variable; an operator's own setting wins.
CHILD_ENV_DEFAULTS = {"MALLOC_ARENA_MAX": "1"}

#: OpenSSL's Python modules.  Nothing a fleet process runs hashes or
#: speaks TLS, yet ``numpy.random`` loads ``_hashlib`` (``secrets`` ->
#: ``hmac``) and ``asyncio`` loads ``ssl``: libcrypto and libssl then
#: cost every worker ≈ 3.5 MB of RSS and the front door ≈ 4.4 MB.  With
#: a ``None`` in ``sys.modules`` their import fails, and every importer
#: falls back: ``hashlib`` / ``hmac`` to CPython's built-in digests,
#: ``asyncio`` to plain sockets.
UNLOADED_MODULES = ("ssl", "_ssl", "_hashlib")


def refuse_unloaded_modules() -> None:
    """Make every later import of :data:`UNLOADED_MODULES` fail.

    A module this process has already loaded is left as it is.
    """
    for name in UNLOADED_MODULES:
        sys.modules.setdefault(name, None)


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
    held open by another.  The child inherits this process's
    environment plus :data:`CHILD_ENV_DEFAULTS` where it sets no value
    of its own.  The code runs after :data:`UNLOADED_MODULES` are
    refused, before anything else is imported.
    """
    root = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.Popen(
        [
            sys.executable,
            # the helper multiprocessing itself uses to mirror -O, -X dev, ...
            *subprocess._args_from_interpreter_flags(),
            "-c",
            f"import sys; sys.modules.update(dict.fromkeys("
            f"{UNLOADED_MODULES!r})); sys.path.insert(0, {root!r}); {code}",
        ],
        stdin=subprocess.DEVNULL,
        stdout=stdout,
        pass_fds=tuple(pass_fds),
        env={**CHILD_ENV_DEFAULTS, **os.environ},
    )
