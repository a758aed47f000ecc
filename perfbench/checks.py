"""Output checks of the benchmark.

Every check returns the failures it found, so a caller can count them
against the operations attempted, and the self-test can prove each one
rejects a deliberately corrupted result.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


def cell_failures(records: "list[dict]") -> "list[str]":
    """Cells whose mean confidence interval misses the study's exact γ.

    Containment is decided from the record's own bounds with the program's
    definition, :meth:`ConfidenceInterval.contains`, which allows a few
    ULPs of slack so a zero-width interval equal to γ covers it. The
    record's ``within_ci`` flag is not trusted: a record whose flag
    disagrees with its bounds fails too.
    """
    from repro.smc.results import ConfidenceInterval

    failures = []
    for record in records:
        gamma = record["gamma_true"]
        if gamma is None:
            continue
        low, high = record["ci_low"], record["ci_high"]
        # The level does not enter contains(); records do not carry it.
        inside = low <= high and ConfidenceInterval(low, high, confidence=0.5).contains(gamma)
        if not inside or record["within_ci"] is not True:
            failures.append(
                f"{record['study']}/{record['estimator']}: mean CI "
                f"[{record['ci_low']!r}, {record['ci_high']!r}] misses gamma {gamma!r}"
            )
    return failures


def csv_mismatch(label: str, expected: str, actual: str) -> "list[str]":
    """A one-item failure list when two CSV documents differ in any byte."""
    if expected == actual:
        return []
    return [f"{label}: CSV differs from the in-process run_matrix result"]


def digest(texts: "list[str]") -> str:
    """SHA-256 over the given documents, in order."""
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()


def source_fingerprint(src: Path) -> str:
    """SHA-256 over every Python source file of the package under *src*."""
    hasher = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode("utf-8"))
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def repeat_digest(state_file: Path, key: str, value: str) -> "list[str]":
    """Require *value* to equal the digest an earlier run stored under *key*.

    The first run of a checkout stores it. *key* carries the source
    fingerprint, so the digests of different code never meet.
    """
    stored: "dict[str, str]" = {}
    if state_file.is_file():
        stored = json.loads(state_file.read_text())
    previous = stored.get(key)
    if previous is not None:
        if previous == value:
            return []
        return [f"records digest {value[:16]} differs from an earlier run's {previous[:16]}"]
    stored[key] = value
    state_file.parent.mkdir(parents=True, exist_ok=True)
    partial = state_file.with_name(f"{state_file.name}.{os.getpid()}")
    partial.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    os.replace(partial, state_file)
    return []
