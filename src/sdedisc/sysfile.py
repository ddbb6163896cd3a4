"""Plain-text serialization of a continuous-time system: a key-value
header followed by row-major numeric blocks.  Decimals carry 17
significant digits, so binary64 values round-trip bit-for-bit."""

import numpy as np

from .linalg import _unit_scaled
from .models import ContinuousModel


class SystemFileError(ValueError):
    """Malformed system file."""


def dumps(model: ContinuousModel, name: str | None = None) -> str:
    lines = []
    if name is not None:
        # loads reads lines as str.splitlines splits them, then strips them
        if name.splitlines() != [name] or not name.strip():
            raise SystemFileError("name must be a single non-blank line")
        lines.append(f"name {name}")
    lines.append(f"n {model.n}")
    for key, mat in (("a", model.a), ("s", model.s)):
        lines.append(key)
        for row in np.asarray(mat, dtype=np.float64):
            lines.append(" ".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def loads(text: str) -> ContinuousModel:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    pos = 0
    if pos < len(lines) and lines[pos].startswith("name "):
        pos += 1
    if pos >= len(lines) or not lines[pos].startswith("n "):
        raise SystemFileError("expected 'n <dimension>' header line")
    try:
        _, n = lines[pos].split()
        n = int(n)
    except ValueError as exc:
        raise SystemFileError("bad dimension line") from exc
    if n < 1:
        raise SystemFileError("dimension must be >= 1")
    pos += 1

    blocks = {}
    for key in ("a", "s"):
        if pos >= len(lines) or lines[pos] != key:
            raise SystemFileError(f"expected block marker '{key}'")
        pos += 1
        if pos + n > len(lines):
            raise SystemFileError(f"block '{key}' is truncated")
        rows = []
        for i in range(n):
            parts = lines[pos + i].split()
            if len(parts) != n:
                raise SystemFileError(
                    f"block '{key}' row {i} has {len(parts)} entries, "
                    f"expected {n}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise SystemFileError(
                    f"block '{key}' row {i}: non-numeric entry") from exc
        blocks[key] = np.array(rows, dtype=np.float64)
        if not np.isfinite(blocks[key]).all():
            raise SystemFileError(f"block '{key}' has a non-finite entry")
        pos += n
    if pos != len(lines):
        raise SystemFileError("trailing content after the 's' block")

    # scaled so that neither norm overflows
    s, _ = _unit_scaled(blocks["s"])
    snorm = float(np.linalg.norm(s))
    if snorm > 0.0 and float(np.linalg.norm(s - s.T)) > 1e-12 * snorm:
        raise SystemFileError("noise intensity block is not symmetric")
    return ContinuousModel(blocks["a"], blocks["s"])


def write(path, model: ContinuousModel, name: str | None = None) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps(model, name))


def read(path) -> ContinuousModel:
    with open(path) as fh:
        return loads(fh.read())
