"""Problem files, synthesis reports and CSV traces.

Problem files are JSON documents with named dense matrices carrying
explicit ``rows``/``cols`` and row-major ``data`` (dimensions are never
inferred, which catches transposition mistakes), plus an optional
``options`` block:

    {
      "problem": "estimation",
      "matrices": {
        "F":  {"rows": 2, "cols": 2, "data": [1, 0, 0, 0]},
        ...
        "ell": {"rows": 2, "cols": 1, "data": [1, 0]}
      },
      "options": {"step": 0.001, "horizon": 20.0, "seed": 0}
    }

Estimation problems name F, A, H, Q, R, Q0 and ell; control problems name
E, A_hat, B_hat, Q, R and Q0.  Parsing rejects NaN/Inf.  Reports are JSON
with sorted keys and no timestamps, so a fixed seed and flags reproduce
byte-identical files; CSV traces use '%.12e' and LF line endings for the
same reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .dae import DaeSystem, ObservedDae
from .errors import InputError, ProblemFileError
from .linalg import DEFAULT_RANK_TOL
from .observer import EstimationProblem
from .riccati import DEFAULT_ARE_TOL, LqWeights
from .simulate import DEFAULT_STEP

ESTIMATION_MATRICES = ("F", "A", "H", "Q", "R", "Q0", "ell")
CONTROL_MATRICES = ("E", "A_hat", "B_hat", "Q", "R", "Q0")
# Rows of a CSV trace formatted and written at a time; bounds the text held.
CSV_BLOCK_ROWS = 1024

# '%.12e' of a finite v != 0 is [-]D.DDDDDDDDDDDDe(+|-)XX[X]: the 13 digits
# of M = round(|v| 10^(12-e)), 1e12 <= M < 1e13.  _format_block computes M
# in floating point for |e| < _FAST_EXP, where 10^(12-e) and the product are
# normal numbers, and lays each field out in a 24-byte row:
#   0 pad | 1 sign | 2 D | 3 '.' | 4-15 DDDD DDDD DDDD | 16 'e' | 17 sign |
#   18 hundreds digit of |e| or pad | 19-20 its last two digits | 21-22 pad |
#   23 ',' or LF
# so dropping every zero byte leaves the text.  _SCALE and _TAIL are indexed
# by k = e + _FAST_EXP + 1.
_FAST_EXP = 290
_EXPS = np.arange(-_FAST_EXP - 1, _FAST_EXP + 2)
# 10^(12-e), each parsed from its decimal so it is correctly rounded
_SCALE = np.array([float(f"1e{12 - e}") for e in _EXPS.tolist()])
_ASCII = np.arange(48, 58, dtype=np.uint8)  # '0'..'9'


def _as_words(table: np.ndarray) -> np.ndarray:
    """The last axis of a uint8 table as one unsigned integer per row."""
    return table.view(f"u{table.shape[-1]}").ravel()


# '0000'..'9999'
_DIGIT4 = _as_words(np.stack(np.meshgrid(*[_ASCII] * 4, indexing="ij"), axis=-1))
# pad, sign, D, '.' at index 10 * signbit + D
_HEAD = np.zeros((2, 10, 4), np.uint8)
_HEAD[1, :, 1] = ord("-")
_HEAD[:, :, 2] = _ASCII
_HEAD[:, :, 3] = ord(".")
_HEAD = _as_words(_HEAD)
# 'e', sign, hundreds digit or pad, 2 digits, pad, separator at index
# 2 k + (last column)
_TAIL = np.zeros((len(_EXPS), 2, 8), np.uint8)
_TAIL[..., 0] = ord("e")
_TAIL[..., 1] = (ord("+") + 2 * (_EXPS < 0))[:, None]
_TAIL[..., 2:5] = _ASCII[np.abs(_EXPS)[:, None] // [100, 10, 1] % 10][:, None]
_TAIL[np.abs(_EXPS) < 100, :, 2] = 0
_TAIL[..., 7] = [ord(","), ord("\n")]
_TAIL = _as_words(_TAIL)
# bytes 20-23 of a row spliced from '%': pad, pad, pad, separator
_SEP4 = _as_words(np.array([[0, 0, 0, ord(",")], [0, 0, 0, ord("\n")]], np.uint8))


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and run parameters, overridable from the command line."""

    rank_tol: float = DEFAULT_RANK_TOL
    are_tol: float = DEFAULT_ARE_TOL
    step: float = DEFAULT_STEP
    horizon: float = 20.0
    seed: int = 0
    trials: int = 20

    def validated(self) -> "SolverOptions":
        for name in ("rank_tol", "are_tol", "step", "horizon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ProblemFileError(
                    f"{name} must be finite and positive, got {value}")
        if self.seed < 0:
            raise ProblemFileError("seed must be nonnegative")
        if self.trials < 1:
            raise ProblemFileError("trials must be at least 1")
        return self


@dataclass(frozen=True)
class ControlProblem:
    """Control-form DAE plus LQ weights."""

    sys: DaeSystem
    weights: LqWeights


@dataclass(frozen=True)
class LoadedProblem:
    kind: str
    problem: object
    options: SolverOptions
    digest: str
    path: str


def _reject_constant(token: str):
    raise ProblemFileError(f"problem file contains non-finite number: {token}")


def _is_number(value, types=(int, float)) -> bool:
    """Whether a decoded JSON value is a number of ``types``; JSON's true
    and false decode to bool, a subclass of int, and are not numbers."""
    return isinstance(value, types) and not isinstance(value, bool)


def _matrix_from_json(obj, name: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ProblemFileError(f"matrix '{name}' must be an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ProblemFileError(f"matrix '{name}' is missing '{key}'")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (_is_number(rows, int) and _is_number(cols, int)) or min(rows, cols) < 0:
        raise ProblemFileError(f"matrix '{name}' has invalid dimensions")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ProblemFileError(
            f"matrix '{name}' data length {len(data) if isinstance(data, list) else '?'}"
            f" does not equal rows*cols = {rows * cols}"
        )
    if not all(map(_is_number, data)):
        raise ProblemFileError(f"matrix '{name}' has non-numeric data")
    try:
        arr = np.array(data, dtype=float).reshape(rows, cols)
    except OverflowError as exc:  # an integer beyond the float range
        raise ProblemFileError(f"matrix '{name}' contains non-finite entries") from exc
    if arr.size and not np.all(np.isfinite(arr)):
        raise ProblemFileError(f"matrix '{name}' contains non-finite entries")
    return arr


def matrix_to_json(M) -> dict:
    M = np.asarray(M, dtype=float)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": [float(v) for v in M.ravel()],
    }


def _options_from_json(obj) -> SolverOptions:
    if obj is None:
        return SolverOptions()
    if not isinstance(obj, dict):
        raise ProblemFileError("'options' must be an object")
    opts = SolverOptions()
    unknown = set(obj) - set(asdict(opts))
    if unknown:
        raise ProblemFileError(f"unknown options: {sorted(unknown)}")
    fields = {}
    for key, value in obj.items():
        if isinstance(getattr(opts, key), int):
            if not _is_number(value, int):
                raise ProblemFileError(f"option '{key}' must be an integer")
            fields[key] = value
        else:
            if not _is_number(value):
                raise ProblemFileError(f"option '{key}' must be a number")
            try:
                fields[key] = float(value)
            except OverflowError as exc:  # an integer beyond the float range
                raise ProblemFileError(f"option '{key}' is out of range") from exc
    return replace(opts, **fields).validated()


def load_problem(path: str) -> LoadedProblem:
    """Parse and validate a problem file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
    except ProblemFileError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProblemFileError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError("problem file must be a JSON object")
    kind = doc.get("problem")
    if kind not in ("estimation", "control"):
        raise ProblemFileError(
            "field 'problem' must be 'estimation' or 'control'"
        )
    matrices = doc.get("matrices")
    if not isinstance(matrices, dict):
        raise ProblemFileError("field 'matrices' must be an object")
    required = ESTIMATION_MATRICES if kind == "estimation" else CONTROL_MATRICES
    missing = [name for name in required if name not in matrices]
    if missing:
        raise ProblemFileError(f"missing matrices: {missing}")
    extra = set(matrices) - set(required)
    if extra:
        raise ProblemFileError(f"unexpected matrices: {sorted(extra)}")
    mats = {name: _matrix_from_json(matrices[name], name) for name in required}
    options = _options_from_json(doc.get("options"))

    try:
        if kind == "estimation":
            obs = ObservedDae(mats["F"], mats["A"], mats["H"])
            if mats["ell"].shape[1] != 1:
                raise InputError("ell must be a single column")
            problem = EstimationProblem(
                obs=obs, Q0=mats["Q0"], Q=mats["Q"], R=mats["R"],
                ell=mats["ell"].ravel(),
            )
        else:
            sys = DaeSystem(mats["E"], mats["A_hat"], mats["B_hat"])
            problem = ControlProblem(
                sys=sys,
                weights=LqWeights(Q=mats["Q"], R=mats["R"], Q0=mats["Q0"]),
            )
    except InputError as exc:
        raise ProblemFileError(str(exc)) from exc
    return LoadedProblem(kind=kind, problem=problem, options=options,
                         digest=digest, path=path)


def spectrum_to_json(spectrum) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(spectrum, complex)]


def check_entry(value: float, tol: float) -> dict:
    return {"value": float(value), "tol": float(tol), "ok": bool(value <= tol)}


def report_envelope(command: str, loaded: LoadedProblem,
                    options: SolverOptions) -> dict:
    return {
        "tool": {"name": "daeobs", "version": __version__},
        "command": command,
        "input": {"path": loaded.path, "sha256": loaded.digest},
        "options": asdict(options),
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


@contextmanager
def _output_path(path: str):
    """Report an operating-system refusal to create or write ``path`` (a
    missing directory, a file in the way, no permission) as an InputError
    naming the path."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def check_report_path(path: str):
    """Raise the InputError that writing a report to ``path`` would raise
    when its directory is missing or is not a directory, before any work."""
    with _output_path(path):
        os.stat(os.path.join(os.path.dirname(path), "."))


def make_output_dir(path: str):
    with _output_path(path):
        os.makedirs(path, exist_ok=True)


def write_report(path: str, report: dict):
    text = dump_report(report)
    with _output_path(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _format_block(block: np.ndarray) -> bytearray:
    """The bytes of '%.12e' % v for every v of a 2-D float block, joined by
    ',' within a row and each row ended by LF.

    y = |v| * 10^(12-e) carries at most two roundings (the table entry and
    the product), so it is within 2^-52 y < 0.0025 of the exact value.  A
    fractional part of y farther than 0.005 from 1/2 therefore rounds
    exactly as the exact value does.  Every other value (a near or exact tie,
    0, a subnormal, a non-finite value, |e| >= _FAST_EXP or a y outside
    [1e12, 1e13)) takes '%' itself, and its text is spliced into the same
    rows.
    """
    cols = block.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = np.abs(block)
        k = np.floor(np.log10(y))
        fast = np.abs(k) < _FAST_EXP
        k[~fast] = 0.0
        k = k.astype(np.intp) + (_FAST_EXP + 1)
        y *= _SCALE[k]
        # log10 may miss by one next to a power of ten: rescale those values
        miss = np.flatnonzero((y >= 1e13) | (y < 1e12))
        flat_k, flat_y = k.reshape(-1), y.reshape(-1)
        off = flat_y[miss]
        flat_k[miss] += (off >= 1e13).astype(np.intp) - (off < 1e12)
        flat_y[miss] = np.abs(block.reshape(-1)[miss]) * _SCALE[flat_k[miss]]
        mant = np.floor(y)
        y -= mant
        fast &= (mant >= 1e12) & (mant < 1e13) & (np.abs(y - 0.5) > 0.005)
        mant += y > 0.5
    mant[~fast] = 1e12
    mant = mant.astype(np.int64)
    carry = mant == 10 ** 13
    mant[carry] = 10 ** 12
    k += carry
    # floor division by a scalar is numpy's fast integer path; % is not
    upper = mant // 10 ** 8                 # digits 1-5
    mant -= upper * 10 ** 8                 # digits 6-13
    lead = upper // 10 ** 4                 # digit 1
    upper -= lead * 10 ** 4                 # digits 2-5
    lead[np.signbit(block)] += 10
    k *= 2
    k[:, -1] += 1

    buf = bytearray(block.size * 24)
    rows = np.frombuffer(buf, np.uint64).reshape(block.shape + (3,))
    words = rows.view(np.uint32)
    words[..., 0] = _HEAD[lead]
    words[..., 1] = _DIGIT4[upper]
    upper = mant // 10 ** 4                 # digits 6-9
    mant -= upper * 10 ** 4                 # digits 10-13
    words[..., 2] = _DIGIT4[upper]
    words[..., 3] = _DIGIT4[mant]
    rows[..., 2] = _TAIL[k]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ("%-20.12e" * slow.size % tuple(block.reshape(-1)[slow].tolist()))
        spliced = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 20)
        words = words.reshape(-1, 6)
        words[slow, :5] = np.where(spliced == 32, 0, spliced).view(np.uint32)
        words[slow, 5] = _SEP4[(slow % cols == cols - 1).astype(np.intp)]
    return buf.translate(None, b"\0")


def write_csv(path: str, header: list[str], columns: list[np.ndarray]):
    """Write float columns with fixed '%.12e' formatting and LF endings,
    CSV_BLOCK_ROWS rows per formatted block and per write."""
    if not columns:
        raise InputError("no columns to write")
    length = len(columns[0])
    if any(len(c) != length for c in columns):
        raise InputError("CSV columns must have equal length")
    if len(header) != len(columns):
        raise InputError("header does not match column count")
    table = np.column_stack(columns).astype(float, copy=False)
    with _output_path(path), open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, length, CSV_BLOCK_ROWS):
            fh.write(_format_block(table[start:start + CSV_BLOCK_ROWS]))
