"""Content-addressed blob store.

Every blob lives under the lowercase hex SHA-256 digest of its bytes, so
equal content maps to one address and one file. The store never rewrites
an existing blob; writers go through :func:`write_atomic` so readers see
either nothing or the full blob.

Blob paths are plain strings and blob files are read and written on file
descriptors (``pathlib`` and buffered file objects cost more user CPU
than a small blob's file work). A read is one ``os.open`` and reads to
end of file, always from disk; a missing blob or fan-out directory
raises :class:`NotFound` from that open, with no check before it.

Note that :meth:`BlobStore.get` returns the stored bytes verbatim without
re-hashing them. Integrity is the *consumer's* job (a retrieved asset is
checked against the address it was promised under), which keeps tampered
storage observable instead of silently repaired.
"""

from __future__ import annotations

import hashlib
import os
import re
from functools import partial
from pathlib import Path

from .errors import NotFound

_ADDRESS = re.compile("[0-9a-f]{64}")
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC  # the flags of open(path, "wb")
_READ_CHUNK = 1 << 16


def content_address(data: bytes) -> str:
    """SHA-256 hex digest of ``data`` (64 lowercase hex chars)."""
    return hashlib.sha256(data).hexdigest()


def is_address(value: str) -> bool:
    return _ADDRESS.fullmatch(value) is not None


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` via a sibling ``.tmp`` file and a rename; a failure removes the temp file."""
    tmp = f"{path}.tmp"
    fd = os.open(tmp, _CREATE, 0o666)  # if this fails, there is no temp file to remove
    try:
        try:
            view = memoryview(data)
            while view:  # a short write leaves the rest of the bytes for the next one
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
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
        if not os.access(path, os.F_OK):  # unlike os.path.exists, no stat result or exception
            try:
                os.mkdir(fanout)
            except FileExistsError:
                pass
            except FileNotFoundError:  # the store's root is not there yet
                os.makedirs(fanout, exist_ok=True)
            write_atomic(path, data)
        return addr

    def get(self, addr: str) -> bytes:
        if is_address(addr):
            try:
                fd = os.open(self._path(addr), os.O_RDONLY)
            except (FileNotFoundError, NotADirectoryError):
                pass
            else:
                try:
                    return b"".join(iter(partial(os.read, fd, _READ_CHUNK), b""))
                finally:
                    os.close(fd)
        raise NotFound(f"no blob stored under {addr!r}")

    def contains(self, addr: str) -> bool:
        return is_address(addr) and os.path.exists(self._path(addr))
