"""Flat-file emission and ingestion.

Dialect across the package: comma separator, ``.`` decimal point, LF line
endings, mandatory header row.  Floats are written with shortest
round-tripping repr so output is byte-identical across runs; across engine
changes ``tests/test_golden.py`` pins every CLI output to within 1e-12.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_rows(path, header, rows) -> None:
    _write_text_rows(path, header, ([fmt(x) for x in row] for row in rows))


def _write_text_rows(path, header, rows) -> None:
    """Write rows whose fields are already the strings :func:`fmt` gives."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_matrix(path, A) -> None:
    A = np.asarray(A)
    if np.iscomplexobj(A):
        if np.max(np.abs(A.imag), initial=0.0) > 1e-12:
            raise ValueError("matrix has significant imaginary parts; cannot emit as real CSV")
        A = A.real
    header = [f"c{j}" for j in range(A.shape[1])]
    write_rows(path, header, A.tolist())


def _read(path) -> tuple[list[str], list[list[str]]]:
    """The header and the non-empty rows of a CSV file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def read_matrix(path) -> np.ndarray:
    return np.asarray([[float(c) for c in row] for row in _read(path)[1]], dtype=float)


def write_labels(path, labels) -> None:
    """One row per point; both integer columns are formatted by type, as
    :func:`fmt` formats them."""
    _write_text_rows(path, ["index", "label"],
                     [(str(i), str(int(l))) for i, l in enumerate(labels)])


def read_labels(path) -> np.ndarray:
    rows = sorted((int(r[0]), int(r[1])) for r in _read(path)[1])
    return np.asarray([l for _, l in rows], dtype=int)


def write_eigenvalues(path, eigenvalues) -> None:
    write_rows(path, ["index", "eigenvalue"],
               [(i, float(w)) for i, w in enumerate(eigenvalues)])


def read_eigenvalues(path) -> np.ndarray:
    rows = sorted((int(r[0]), float(r[1])) for r in _read(path)[1])
    return np.asarray([w for _, w in rows], dtype=float)


def write_trajectory(path, traj) -> None:
    write_rows(
        path,
        ["iteration", "success_prob", "fidelity", "qubit0_p0"],
        [
            (int(t), float(s), float(f), float(q))
            for t, s, f, q in zip(traj.iterations, traj.success_prob, traj.fidelity, traj.qubit0_p0)
        ],
    )


def read_trajectory(path) -> dict[str, np.ndarray]:
    header, rows = _read(path)
    cols = {name: [] for name in header}
    for row in rows:
        for name, val in zip(header, row):
            cols[name].append(float(val))
    out = {name: np.asarray(vals) for name, vals in cols.items()}
    out["iteration"] = out["iteration"].astype(int)
    return out


def write_ranking(path, reports) -> None:
    """One row per report; each column is formatted by its type, as :func:`fmt`
    formats it."""
    _write_text_rows(
        path,
        ["y_id", "method", "similarity", "rank"],
        [(str(r.y_id), str(r.method), repr(float(r.similarity)), str(int(r.rank)))
         for r in reports],
    )


def read_ranking(path) -> list[dict]:
    return [{"y_id": r[0], "method": r[1], "similarity": float(r[2]), "rank": int(r[3])}
            for r in _read(path)[1]]
