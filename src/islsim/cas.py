"""Content-addressed blob store.

Every blob lives under the lowercase hex SHA-256 digest of its bytes, so
equal content maps to one address and one file. The store never rewrites
an existing blob; writers go through :func:`write_atomic` so readers see
either nothing or the full blob.

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


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` via a sibling ``.tmp`` file and a rename: never a partial file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class BlobStore:
    """One directory of immutable blobs, laid out ``blobs/<2 hex>/<64 hex>``."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, addr: str) -> Path:
        return self.root / "blobs" / addr[:2] / addr

    def relative_uri(self, addr: str) -> str:
        """Store path of ``addr`` relative to the root, usable as a local URI."""
        return f"blobs/{addr[:2]}/{addr}"

    def put(self, data: bytes) -> str:
        addr = content_address(data)
        path = self.path_for(addr)
        if path.exists():
            return addr
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, data)
        return addr

    def get(self, addr: str) -> bytes:
        if not is_address(addr) or not self.path_for(addr).exists():
            raise NotFound(f"no blob stored under {addr!r}")
        return self.path_for(addr).read_bytes()

    def contains(self, addr: str) -> bool:
        return is_address(addr) and self.path_for(addr).exists()

    def addresses(self) -> list[str]:
        """All stored addresses, sorted (mainly for tests and inspection)."""
        base = self.root / "blobs"
        if not base.is_dir():
            return []
        return sorted(p.name for p in base.glob("??/*") if not p.name.endswith(".tmp"))
