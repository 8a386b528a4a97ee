"""Crash-safe state: the one module that makes writes durable.

Three formats outlive a crash: the campaign checkpoint
(:class:`repro.engine.supervisor.CampaignCheckpoint`), the synthesis
checkpoint (:meth:`repro.synth.SynthCampaign.run`) and the serve request
journal (:class:`repro.server.RequestJournal`).  They share two write
primitives, one torn-tail rule and one checkpoint envelope:

* :func:`atomic_write` replaces a whole file through a temp file in the
  same directory, ``fsync`` and ``os.replace``; a failed write removes
  its temp file.
* :func:`open_log` opens a line log for appending and truncates a
  partial final line (a crash mid-append), so the next record starts on
  a line of its own; :func:`append_line` writes one line and fsyncs it.
* :func:`write_envelope` / :func:`load_envelope` wrap a checkpoint body
  in ``version`` + ``fingerprint`` and validate both on load, raising
  :class:`CheckpointError`.

The guarantee is *never a torn file*: a kill at any instant leaves
either the previous complete file or the new one.  The directory is not
fsync'd, so after a power loss the newest rename may be lost and the
previous checkpoint is what resumes — determinism makes that safe.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import IO


class CheckpointError(ValueError):
    """A checkpoint artifact is unreadable or belongs to a different
    campaign (wrong fault universe, corrupted statuses)."""


def atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` all-or-nothing."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def open_log(path: str) -> IO[str]:
    """Open a line log for appending, truncating a torn final line."""
    with open(path, "ab+") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                handle.seek(0)
                handle.truncate(handle.read().rfind(b"\n") + 1)
    return open(path, "a")


def append_line(handle: IO[str], line: str) -> None:
    """Append one line to a log opened by :func:`open_log`, durably."""
    handle.write(line + "\n")
    handle.flush()
    os.fsync(handle.fileno())


def write_envelope(
    path: str, version: int, fingerprint: str, body: dict
) -> None:
    """Atomically write ``body`` under a ``version``/``fingerprint``
    header."""
    payload = {"version": version, "fingerprint": fingerprint, **body}
    atomic_write(path, json.dumps(payload) + "\n")


def load_envelope(path: str, version: int, fingerprint: str) -> dict:
    """Read a checkpoint written by :func:`write_envelope`, refusing a
    missing, unreadable, foreign-version or foreign-campaign file."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(
            f"checkpoint {path!r} does not exist; run without --resume "
            f"to start a fresh campaign"
        )
    except (OSError, ValueError) as error:
        raise CheckpointError(f"checkpoint {path!r} is unreadable: {error}")
    if not isinstance(payload, dict) or payload.get("version") != version:
        raise CheckpointError(f"checkpoint {path!r} has an unsupported format")
    if payload.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint {path!r} belongs to a different campaign; run "
            f"without --resume"
        )
    return payload
