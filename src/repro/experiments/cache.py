"""Persistent on-disk cache of simulation results.

Re-running a figure bench after touching only one parameter should only
simulate the points whose configuration actually changed.  The cache maps
a **stable key** — the SHA-256 of
:func:`~repro.core.config.canonical_config` plus a code-version string —
to the pickled :class:`~repro.core.metrics.Results` of that run.  An entry
stores the canonical config beside the results; the code version lives in
the key alone.

Invalidation rules:

* any config field change (scheme, seed, every Table II parameter)
  changes the canonical JSON and therefore the key;
* any edit to the package's own source (:func:`source_digest`), a new
  ``repro.__version__`` or a cache format bump (:data:`CACHE_FORMAT`)
  invalidates every prior entry, because simulated trajectories are only
  reproducible for the code that produced them;
* unreadable or mismatching entries (corrupt file, hash collision) are
  treated as misses, never as errors.

Entries are written atomically (temp file + ``os.replace``) so a crashed
or concurrent writer can never leave a torn entry behind.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import pickle
from pathlib import Path
from typing import Optional, Union

from repro import __version__
from repro.core.config import SimulationConfig, canonical_config
from repro.core.metrics import Results

__all__ = ["CACHE_FORMAT", "ResultCache", "config_key"]

#: Bump when the on-disk entry layout (not the simulator) changes.
CACHE_FORMAT = 1

#: Distinguishes temp files of concurrent writers within one process
#: (threads share a pid, so the pid alone is not collision-free).
_TEMP_COUNTER = itertools.count()


@functools.cache
def source_digest(package_root: Path) -> str:
    """SHA-256 over every ``*.py`` under ``package_root`` (path and bytes).

    Read once per process and root, on first use rather than at import.
    """
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(path.relative_to(package_root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def default_code_version() -> str:
    """The code-version string mixed into every cache key."""
    source = source_digest(Path(__file__).resolve().parent.parent)
    return f"repro-{__version__}/cache-{CACHE_FORMAT}/src-{source[:16]}"


def config_key(config: SimulationConfig) -> str:
    """The cache key: SHA-256 over canonical config + code version."""
    digest = hashlib.sha256()
    digest.update(canonical_config(config).encode("utf-8"))
    digest.update(b"\n")
    digest.update(default_code_version().encode("utf-8"))
    return digest.hexdigest()


class ResultCache:
    """A directory of pickled per-configuration :class:`Results`.

    ``hits`` / ``misses`` / ``stores`` count this instance's traffic, so
    tests (and the CLI's cache summary) can assert e.g. that a repeated
    sweep resolved entirely from disk.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as error:
            raise ValueError(
                f"cache path {self.directory} is not a usable directory: "
                f"{error}"
            ) from error
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, config: SimulationConfig) -> str:
        """The stable key of a configuration under the current code version."""
        return config_key(config)

    def path_for(self, config: SimulationConfig) -> Path:
        """Where a configuration's entry lives (whether or not it exists)."""
        return self.directory / f"{self.key(config)}.pkl"

    def get(self, config: SimulationConfig) -> Optional[Results]:
        """The cached results for ``config``, or None on any kind of miss."""
        path = self.path_for(config)
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        # A damaged entry can raise almost anything out of the unpickler
        # (ValueError, ImportError, IndexError, ...): any failure to read
        # is a miss, never a crash.
        except Exception:
            self.misses += 1
            return None
        # Guard against hash collisions and stale formats: the stored
        # canonical config must match the requested one exactly.
        if (
            not isinstance(payload, dict)
            or payload.get("config") != canonical_config(config)
            or not isinstance(payload.get("results"), Results)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload["results"]

    def put(self, config: SimulationConfig, results: Results) -> Path:
        """Save one run's results; returns the entry path."""
        path = self.path_for(config)
        payload = {
            "config": canonical_config(config),
            "results": results,
        }
        temporary = path.with_name(
            path.name + f".tmp{os.getpid()}-{next(_TEMP_COUNTER)}"
        )
        with temporary.open("wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temporary, path)
        self.stores += 1
        return path

    def __len__(self) -> int:
        """Entries currently on disk."""
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            path.unlink()
            removed += 1
        return removed
