"""Content-addressed blob store.

Every blob lives under the lowercase hex SHA-256 digest of its bytes, so
equal content maps to one address and one file. The store never rewrites
an existing blob; writers go through :func:`write_atomic` so readers see
either nothing or the full blob.

Blob paths are plain strings (``pathlib`` costs more per call than the
file work here), and a read is one ``open``: a missing blob or fan-out
directory raises :class:`NotFound` from it, with no check before it.

Note that :meth:`BlobStore.get` returns the stored bytes verbatim without
re-hashing them. Integrity is the *consumer's* job (a retrieved asset is
checked against the address it was promised under), which keeps tampered
storage observable instead of silently repaired.
"""

from __future__ import annotations

import hashlib
import os
import re
from pathlib import Path

from .errors import NotFound

_ADDRESS = re.compile("[0-9a-f]{64}")


def content_address(data: bytes) -> str:
    """SHA-256 hex digest of ``data`` (64 lowercase hex chars)."""
    return hashlib.sha256(data).hexdigest()


def is_address(value: str) -> bool:
    return _ADDRESS.fullmatch(value) is not None


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` via a sibling ``.tmp`` file and a rename; a failure removes the temp file."""
    tmp = f"{path}.tmp"
    f = open(tmp, "wb")  # if this fails, there is no temp file to remove
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


class BlobStore:
    """One directory of immutable blobs, laid out ``blobs/<2 hex>/<64 hex>``."""

    def __init__(self, root: str | Path):
        self._blobs = f"{os.fspath(root)}/blobs"

    def _path(self, addr: str) -> str:
        return f"{self._blobs}/{addr[:2]}/{addr}"

    def path_for(self, addr: str) -> Path:
        return Path(self._path(addr))

    def relative_uri(self, addr: str) -> str:
        """Store path of ``addr`` relative to the root, usable as a local URI."""
        return f"blobs/{addr[:2]}/{addr}"

    def put(self, data: bytes) -> str:
        addr = content_address(data)
        fanout = f"{self._blobs}/{addr[:2]}"
        path = f"{fanout}/{addr}"
        if not os.path.exists(path):
            os.makedirs(fanout, exist_ok=True)
            write_atomic(path, data)
        return addr

    def get(self, addr: str) -> bytes:
        if is_address(addr):
            try:
                with open(self._path(addr), "rb") as f:
                    return f.read()
            except (FileNotFoundError, NotADirectoryError):
                pass
        raise NotFound(f"no blob stored under {addr!r}")

    def contains(self, addr: str) -> bool:
        return is_address(addr) and os.path.exists(self._path(addr))
