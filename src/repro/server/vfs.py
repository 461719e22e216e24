"""An in-process virtual filesystem.

The paper's users "insert new documents ... by simply dragging the
documents into a (NETMARK) desktop folder"; folders live on a WebDAV
server.  This virtual filesystem is that server's storage: a tree of
directories and text files with modification stamps, shared by the WebDAV
layer (client-facing verbs) and the daemon (folder watching).

Paths are POSIX-style (``/incoming/report.ndoc``), always absolute, and
normalised; the root directory always exists.
"""

from __future__ import annotations

import datetime as _dt
import itertools
from dataclasses import dataclass, field

from repro.errors import WebDavError

#: Fixed epoch for deterministic logical timestamps.
_EPOCH = _dt.datetime(2005, 6, 14, 0, 0, 0)  # SIGMOD'05, day one


def normalize_path(path: str) -> str:
    """Normalise to ``/a/b`` form; raises on escapes above the root."""
    parts: list[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if not parts:
                raise WebDavError(400, f"path escapes root: {path!r}")
            parts.pop()
        else:
            parts.append(part)
    return "/" + "/".join(parts)


def parent_path(path: str) -> str:
    path = normalize_path(path)
    if path == "/":
        return "/"
    return normalize_path(path.rsplit("/", 1)[0] or "/")


def base_name(path: str) -> str:
    return normalize_path(path).rsplit("/", 1)[-1]


@dataclass
class FileEntry:
    """A stored file: text content plus DAV-visible properties."""

    content: str
    modified: _dt.datetime
    properties: dict[str, str] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.content)


class VirtualFileSystem:
    """Tree of directories and text files with a logical clock."""

    def __init__(self) -> None:
        self._directories: set[str] = {"/"}
        self._files: dict[str, FileEntry] = {}
        self._ticks = itertools.count()

    def _now(self) -> _dt.datetime:
        return _EPOCH + _dt.timedelta(seconds=next(self._ticks))

    # -- directories --------------------------------------------------------

    def mkdir(self, path: str, parents: bool = False) -> str:
        path = normalize_path(path)
        if path in self._directories:
            raise WebDavError(405, f"directory exists: {path}")
        if path in self._files:
            raise WebDavError(409, f"a file exists at {path}")
        parent = parent_path(path)
        if parent not in self._directories:
            if not parents:
                raise WebDavError(409, f"missing parent directory: {parent}")
            self.mkdir(parent, parents=True)
        self._directories.add(path)
        return path

    def is_dir(self, path: str) -> bool:
        return normalize_path(path) in self._directories

    def is_file(self, path: str) -> bool:
        return normalize_path(path) in self._files

    def exists(self, path: str) -> bool:
        return self.is_dir(path) or self.is_file(path)

    # -- files ------------------------------------------------------------------

    def write(self, path: str, content: str) -> FileEntry:
        """Create or overwrite a file; parent directory must exist."""
        path = normalize_path(path)
        if path in self._directories:
            raise WebDavError(409, f"a directory exists at {path}")
        parent = parent_path(path)
        if parent not in self._directories:
            raise WebDavError(409, f"missing parent directory: {parent}")
        existing = self._files.get(path)
        properties = existing.properties if existing else {}
        entry = FileEntry(content, self._now(), properties)
        self._files[path] = entry
        return entry

    def read(self, path: str) -> str:
        return self.entry(path).content

    def entry(self, path: str) -> FileEntry:
        path = normalize_path(path)
        try:
            return self._files[path]
        except KeyError:
            raise WebDavError(404, f"not found: {path}") from None

    def delete(self, path: str) -> None:
        """Delete a file or (recursively) a directory."""
        path = normalize_path(path)
        if path == "/":
            raise WebDavError(403, "cannot delete the root")
        if path in self._files:
            del self._files[path]
            return
        if path in self._directories:
            prefix = path + "/"
            for file_path in [p for p in self._files if p.startswith(prefix)]:
                del self._files[file_path]
            for dir_path in [
                d for d in self._directories if d == path or d.startswith(prefix)
            ]:
                self._directories.discard(dir_path)
            return
        raise WebDavError(404, f"not found: {path}")

    def move(self, source: str, destination: str) -> None:
        """Move/rename a file or directory subtree."""
        source = normalize_path(source)
        destination = normalize_path(destination)
        if not self.exists(source):
            raise WebDavError(404, f"not found: {source}")
        if self.exists(destination):
            raise WebDavError(412, f"destination exists: {destination}")
        if parent_path(destination) not in self._directories:
            raise WebDavError(409, "missing parent of destination")
        if source in self._files:
            self._files[destination] = self._files.pop(source)
            return
        prefix = source + "/"
        self._directories.discard(source)
        self._directories.add(destination)
        for dir_path in [d for d in list(self._directories) if d.startswith(prefix)]:
            self._directories.discard(dir_path)
            self._directories.add(destination + dir_path[len(source):])
        for file_path in [p for p in list(self._files) if p.startswith(prefix)]:
            self._files[destination + file_path[len(source):]] = self._files.pop(
                file_path
            )

    def copy(self, source: str, destination: str) -> None:
        """Copy a file (directories copy shallowly per entry)."""
        source = normalize_path(source)
        destination = normalize_path(destination)
        if source in self._files:
            entry = self._files[source]
            if parent_path(destination) not in self._directories:
                raise WebDavError(409, "missing parent of destination")
            if destination in self._directories:
                raise WebDavError(409, f"a directory exists at {destination}")
            self._files[destination] = FileEntry(
                entry.content, self._now(), dict(entry.properties)
            )
            return
        if source in self._directories:
            self.mkdir(destination, parents=True)
            prefix = source + "/"
            for file_path, entry in list(self._files.items()):
                if file_path.startswith(prefix):
                    target = destination + file_path[len(source):]
                    if not self.is_dir(parent_path(target)):
                        self.mkdir(parent_path(target), parents=True)
                    self._files[target] = FileEntry(
                        entry.content, self._now(), dict(entry.properties)
                    )
            return
        raise WebDavError(404, f"not found: {source}")

    # -- listing ------------------------------------------------------------------

    def listdir(self, path: str) -> list[str]:
        """Immediate children (names, directories suffixed '/'), sorted
        whatever the history: the daemon ingests in this order."""
        path = normalize_path(path)
        if path not in self._directories:
            raise WebDavError(404, f"not a directory: {path}")
        prefix = path if path.endswith("/") else path + "/"
        names: list[str] = []
        for dir_path in self._directories:
            if dir_path != path and dir_path.startswith(prefix):
                rest = dir_path[len(prefix):]
                if "/" not in rest:
                    names.append(rest + "/")
        for file_path in self._files:
            if file_path.startswith(prefix):
                rest = file_path[len(prefix):]
                if "/" not in rest:
                    names.append(rest)
        return sorted(names)
