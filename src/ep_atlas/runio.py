"""Run input/output: config files, CSV emission, and manifests.

Everything written here is deterministic for a fixed resolved configuration:
metadata keys are sorted, floats are rendered with shortest round-trip repr,
newlines are fixed to "\\n", and no timestamps enter the data files.  The
manifest records content digests of the data files (stable across reruns)
alongside the wall time (which is not, and lives only in the manifest).

Config files are flat key = value text: blank lines and lines starting with
'#' are ignored, keys may appear once, and the caller supplies the set of
keys it understands.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError


def parse_config(path, allowed: set[str] | None = None) -> dict[str, str]:
    """Read a flat key = value config file into a string dict."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError("config file not found: %s" % p)
    out: dict[str, str] = {}
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value, got %r" % (p, lineno, raw))
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if not key:
            raise ConfigError("%s:%d: empty key" % (p, lineno))
        if key in out:
            raise ConfigError("%s:%d: duplicate key %r" % (p, lineno, key))
        if allowed is not None and key not in allowed:
            raise ConfigError("%s:%d: unknown key %r" % (p, lineno, key))
        out[key] = val
    return out


_ROWS = 512  # rows converted and formatted per batch, so memory does not grow with the table


def format_value(x) -> str:
    """Shortest deterministic text for a cell value; numpy scalars read as Python ones."""
    if hasattr(x, "item"):
        x = x.item()
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, complex):
        return repr(x.real) + ("+" if x.imag >= 0 else "-") + repr(abs(x.imag)) + "j"
    return str(x)


def write_csv(path, meta: dict, columns: dict) -> Path:
    """CSV with a '#'-prefixed metadata block, then header and rows.

    columns maps name -> sequence or numpy array; all must have equal length.
    Rows are converted and formatted _ROWS at a time, one column at a time,
    and each batch of rows is written at once.
    """
    names = list(columns.keys())
    cols = [columns[k] for k in names]
    n = len(cols[0]) if cols else 0
    if any(len(c) != n for c in cols):
        raise ValueError("columns must have equal length")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        for k in sorted(meta):
            fh.write("# %s: %s\n" % (k, meta[k]))
        fh.write(",".join(names) + "\n")
        for a in range(0, n, _ROWS):
            texts = [_column_text(c[a : a + _ROWS]) for c in cols]
            fh.write("".join(",".join(row) + "\n" for row in zip(*texts)))
    return p


def _column_text(column) -> list[str]:
    """format_value of every cell, formatted once per numpy column by dtype kind."""
    if not isinstance(column, np.ndarray):
        return [format_value(v) for v in column]
    kind = column.dtype.kind
    if kind == "f":
        return list(map(repr, column.tolist()))
    if kind in ("i", "u"):
        return list(map(str, column.tolist()))
    if kind == "b":
        return ["1" if x else "0" for x in column.tolist()]
    if kind == "c":
        sign = np.where(column.imag >= 0, "+", "-").tolist()
        im = np.abs(column.imag).tolist()
        return [repr(a) + s + repr(b) + "j" for a, s, b in zip(column.real.tolist(), sign, im)]
    return [format_value(v) for v in _cells(column)]


def write_json(path, meta: dict, columns: dict) -> Path:
    """JSON mirror of write_csv with the same determinism guarantees."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "meta": {k: meta[k] for k in sorted(meta)},
        "columns": {k: [_json_cell(v) for v in _cells(columns[k])] for k in columns},
    }
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return p


def _cells(column) -> list:
    """A column as a list, numpy arrays as Python scalars."""
    return column.tolist() if hasattr(column, "tolist") else list(column)


def _json_cell(v):
    if hasattr(v, "item"):
        v = v.item()
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, float) and v != v:
        return None  # JSON has no NaN
    return v


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(out_dir, command: str, config: dict, files, version: str, wall_time: float) -> Path:
    """Manifest with config echo, tool version, wall time, and file digests.

    The digests are stable across reruns of the same configuration; the wall
    time is informational and confined to this file.
    """
    out = Path(out_dir)
    doc = {
        "command": command,
        "config": {k: str(config[k]) for k in sorted(config)},
        "version": version,
        "wall_time_s": round(float(wall_time), 3),
        "files": {
            Path(f).name: {"sha256": file_digest(f), "bytes": os.path.getsize(f)} for f in sorted(map(str, files))
        },
    }
    p = out / ("%s_manifest.json" % command)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return p


def resolve_out(explicit=None, config_value=None) -> Path:
    """Output directory: flag > config > EP_ATLAS_OUT > current directory."""
    for cand in (explicit, config_value, os.environ.get("EP_ATLAS_OUT")):
        if cand:
            return Path(cand)
    return Path(".")
