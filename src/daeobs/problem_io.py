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
        if self.rank_tol <= 0 or self.are_tol <= 0:
            raise ProblemFileError("tolerances must be positive")
        if self.step <= 0:
            raise ProblemFileError("step must be positive")
        if self.horizon <= 0:
            raise ProblemFileError("horizon must be positive")
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


def _matrix_from_json(obj, name: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ProblemFileError(f"matrix '{name}' must be an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ProblemFileError(f"matrix '{name}' is missing '{key}'")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise ProblemFileError(f"matrix '{name}' has invalid dimensions")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ProblemFileError(
            f"matrix '{name}' data length {len(data) if isinstance(data, list) else '?'}"
            f" does not equal rows*cols = {rows * cols}"
        )
    try:
        arr = np.array(data, dtype=float).reshape(rows, cols)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"matrix '{name}' has non-numeric data") from exc
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
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProblemFileError(f"option '{key}' must be an integer")
            fields[key] = value
        else:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ProblemFileError(f"option '{key}' must be a number")
            fields[key] = float(value)
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


def write_report(path: str, report: dict):
    text = dump_report(report)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(path: str, header: list[str], columns: list[np.ndarray]):
    """Write float columns with fixed '%.12e' formatting and LF endings."""
    if not columns:
        raise InputError("no columns to write")
    length = len(columns[0])
    if any(len(c) != length for c in columns):
        raise InputError("CSV columns must have equal length")
    if len(header) != len(columns):
        raise InputError("header does not match column count")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(length):
            fh.write(",".join("%.12e" % float(c[i]) for c in columns) + "\n")
