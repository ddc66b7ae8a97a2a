"""Schema-versioned benchmark reports: build, validate, load, write.

One JSON document shape serves every producer — the statistical runner
(``python -m repro.bench``), the pytest bench harness
(``benchmarks/conftest.py``) and hand-built test fixtures — so the
regression gate can compare any two of them::

    {
      "schema": "repro-bench/1",
      "generated": "2026-08-06T12:00:00Z",
      "unit": "seconds",
      "repeats": 5,
      "warmup": 1,
      "environment": {"git_sha": "...", "python": "3.12.3", "platform": "...",
                      "constants_version": "..."},
      "benches": {
        "figure4": {"min": 0.051, "median": 0.053, "mad": 0.001, "repeats": 5}
      }
    }

``min``/``median``/``mad`` are seconds; ``mad`` is the raw median
absolute deviation of the repeats (:mod:`repro.bench.compare` turns it
into a noise band). ``environment`` is the
:func:`repro.obs.history.run_environment` stamp. Schema or shape
violations raise :class:`repro.errors.DataError` so a corrupted
baseline fails the gate loudly instead of comparing garbage.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from ..errors import DataError, DomainError
from ..obs.history import run_environment

__all__ = [
    "SCHEMA_ID",
    "load_report",
    "make_report",
    "validate_report",
    "write_report",
]

#: Current report schema identifier (bump on incompatible change).
SCHEMA_ID = "repro-bench/1"

#: Per-bench statistics every report row must carry.
_ROW_KEYS = ("min", "median", "mad", "repeats")


def make_report(benches: dict, *, repeats: int, warmup: int,
                environment: dict | None = None,
                generated: str | None = None) -> dict:
    """Assemble a schema-versioned report document.

    Parameters
    ----------
    benches:
        ``name -> {"min", "median", "mad", "repeats"}`` rows (seconds).
    repeats / warmup:
        The suite-level measurement protocol recorded for provenance.
    environment:
        Override for :func:`repro.obs.history.run_environment` (tests
        pin this).
    generated:
        ISO timestamp override; defaults to the current UTC time.
    """
    if repeats < 1:
        raise DomainError(f"repeats must be >= 1; got {repeats}")
    if warmup < 0:
        raise DomainError(f"warmup must be >= 0; got {warmup}")
    for name, row in benches.items():
        missing = [k for k in _ROW_KEYS if k not in row]
        if missing:
            raise DomainError(
                f"bench {name!r} row is missing {missing}; need {_ROW_KEYS}")
    return validate_report({
        "schema": SCHEMA_ID,
        "generated": generated if generated is not None else time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "unit": "seconds",
        "repeats": int(repeats),
        "warmup": int(warmup),
        "environment": (environment if environment is not None
                        else run_environment()),
        "benches": {name: {k: row[k] for k in _ROW_KEYS}
                    for name, row in sorted(benches.items())},
    }, where="assembled report")


def validate_report(document, *, where: str = "bench report") -> dict:
    """Check a parsed document against the schema; returns it unchanged.

    Raises
    ------
    DataError
        On a wrong/missing schema id or malformed ``benches`` rows.
    """
    if not isinstance(document, dict):
        raise DataError(f"{where}: expected a JSON object, "
                        f"got {type(document).__name__}")
    schema = document.get("schema")
    if schema != SCHEMA_ID:
        raise DataError(f"{where}: schema {schema!r} is not {SCHEMA_ID!r} "
                        "(regenerate with python -m repro.bench)")
    benches = document.get("benches")
    if not isinstance(benches, dict):
        raise DataError(f"{where}: 'benches' must be an object")
    for name, row in benches.items():
        if not isinstance(row, dict):
            raise DataError(f"{where}: bench {name!r} row must be an object")
        for key in _ROW_KEYS:
            value = row.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise DataError(
                    f"{where}: bench {name!r} lacks finite numeric {key!r}")
    return document


def load_report(path: Path | str) -> dict:
    """Read and validate a report file.

    Raises
    ------
    DataError
        If the file is unreadable, not JSON, or fails validation.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read bench report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"bench report {path} is not valid JSON: {exc}") from exc
    return validate_report(document, where=str(path))


def write_report(path: Path | str, document: dict) -> Path:
    """Validate and write a report document (stable key order); returns path."""
    validate_report(document, where=str(path))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
