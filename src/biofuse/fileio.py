"""Atomic file replacement and the one block layout of every file the package
writes (``docs/formats.md``, "Block layout"): a magic line, header lines of
space-separated fields, little-endian blocks read straight into their arrays,
and a ``<u4`` CRC32 closing each checksummed run of bytes."""

from __future__ import annotations

import contextlib
import math
import os
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@contextlib.contextmanager
def atomic_write(path, mode: str, **open_kwargs):
    """Open a temp file beside `path` for writing and move it onto `path` when
    the block ends; if the block raises, the temp file is removed and any
    previous file at `path` is left as it was.  A new file gets the mode bits
    a plain `open` gives under the umask."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with open(fd, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class BlockFormat:
    """One file kind: its magic line, the noun and error class of its reader's
    errors, and how a file of another version is rebuilt."""

    magic: str
    noun: str
    error: type[Exception]
    rebuild: str
    version_error: type[Exception] | None = None  # `error` unless given


def write_blocks(f, parts: Iterable[bytes | np.ndarray]) -> int:
    """Write each part (header-line bytes or a little-endian array) to `f`,
    then the CRC32 of them all as a `<u4`; return that CRC."""
    crc = 0
    for part in parts:
        f.write(part)
        crc = zlib.crc32(part, crc)
    f.write(crc.to_bytes(4, "little"))
    return crc


def write_file(path, fmt: BlockFormat, parts: Iterable[bytes | np.ndarray]) -> None:
    """Atomically write the magic line of `fmt`, then `parts` closed by their CRC32."""
    with atomic_write(path, "wb") as f:
        f.write(f"{fmt.magic}\n".encode())
        write_blocks(f, parts)


class BlockReader:
    """A file read part by part: each block is checked against the bytes left
    before it is read, and the CRC32 of the bytes read since `restart` is
    kept.  Errors are the format's error class and name the byte offset and,
    when set, `scope`."""

    def __init__(self, f, fmt: BlockFormat) -> None:
        self.f = f
        self.fmt = fmt
        self.size = os.fstat(f.fileno()).st_size
        self.scope: str | None = None
        self.restart()

    def restart(self) -> None:
        """Start a checksummed run of bytes at the current offset."""
        self.start, self.crc = self.f.tell(), 0

    def error(self, at: int, what: str) -> Exception:
        where = f" ({self.scope})" if self.scope is not None else ""
        return self.fmt.error(f"byte {at}: {what}{where}")

    def line(self, maxsplit: int = -1) -> tuple[int, list[str]]:
        """(offset, space-separated fields) of the next header line."""
        at = self.f.tell()
        raw = self.f.readline()
        self.crc = zlib.crc32(raw, self.crc)
        if not raw.endswith(b"\n"):
            raise self.error(at, "truncated file: expected a header line")
        try:
            return at, raw[:-1].decode("utf-8").split(" ", maxsplit)
        except UnicodeDecodeError as e:
            raise self.error(at + e.start, "header line is not valid UTF-8") from None

    def expect(self, keyword: str, n_fields: int, maxsplit: int = -1) -> tuple[int, list[str]]:
        """The next header line, which must be `keyword` and `n_fields` fields in all."""
        at, fields = self.line(maxsplit)
        if fields[0] != keyword or len(fields) != n_fields:
            raise self.error(at, f"expected a '{keyword}' line")
        return at, fields

    def count(self, at: int, token: str, what: str) -> int:
        # 20 digits exceed any file size; a longer token would make `int` raise
        if token.isascii() and token.isdigit() and len(token) <= 20:
            return int(token)
        raise self.error(at, f"{what} must be a non-negative integer, got {token!r}")

    def block(self, shape: tuple[int, ...], dtype, what: str) -> np.ndarray:
        """The next `shape` block of `dtype`, read straight into a new array."""
        at = self.f.tell()
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if size > self.size - at:
            raise self.error(at, f"truncated {what}: {size} bytes declared, {self.size - at} left")
        out = np.empty(shape, dtype=dtype)
        if self.f.readinto(out) != size:
            raise self.error(at, f"truncated {what}")
        self.crc = zlib.crc32(out, self.crc)
        return out

    def checksum(self, what: str = "checksum") -> None:
        """Read the stored `<u4` CRC32 and compare it with the run's."""
        at = self.f.tell()
        stored = self.f.read(4)
        if len(stored) < 4:
            raise self.error(at, f"truncated file: expected the {what}")
        if int.from_bytes(stored, "little") != self.crc:
            raise self.error(self.start, f"checksum mismatch over bytes {self.start}-{at - 1}")

    def finish(self, last: str = "the checksum") -> None:
        """Require the file to end here, after `last`."""
        if self.f.read(1):
            raise self.error(self.f.tell() - 1, f"data after {last}")


@contextlib.contextmanager
def read_blocks(path, fmt: BlockFormat) -> Iterator[BlockReader]:
    """A reader of `path` past its magic line, which must be `fmt`'s; a first
    line naming another version of the format raises `fmt`'s version error
    with the command that rebuilds the file."""
    with open(path, "rb") as f:
        src = BlockReader(f, fmt)
        magic = f.readline(64)
        if magic != f"{fmt.magic}\n".encode():
            version = magic.removeprefix(fmt.magic.rstrip("0123456789").encode())
            if version != magic and version.endswith(b"\n") and version[:-1].isdigit():
                raise (fmt.version_error or fmt.error)(
                    f"byte 0: unsupported {fmt.noun} version {magic[:-1].decode()!r}; this "
                    f"reader reads {fmt.magic!r}: {fmt.rebuild}"
                )
            raise src.error(0, f"not a {fmt.noun} file (missing header)")
        src.restart()
        yield src
