"""CSV readers and writers for branch, cutoff, dataset, comparison and mode tables.

All floats are written with 17 significant digits so files round-trip
bit-exactly; non-finite values are refused.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .branch import BranchSet
from .inversion import DispersionDataset

__all__ = [
    "write_branches_csv",
    "write_cutoffs_csv",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_weyl_csv",
    "write_mode_csv",
]


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"refusing to write non-finite value {x!r}")
    return format(float(x), ".17g")


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_branches_csv(path: str | Path, branchset: BranchSet) -> None:
    """Columns ``ell, omega, y, k`` sorted by (ell, omega)."""
    rows = []
    for b in branchset.branches:
        for w, y in zip(b.omega, b.y):
            rows.append((b.ell, _fmt(w), _fmt(y), _fmt(w * y)))
    _write_rows(path, ("ell", "omega", "y", "k"), rows)


def write_cutoffs_csv(path: str | Path, branchset: BranchSet) -> None:
    """Columns ``ell, omega_ell``."""
    rows = [(i + 1, _fmt(w)) for i, w in enumerate(branchset.cutoffs)]
    _write_rows(path, ("ell", "omega_ell"), rows)


def write_dataset_csv(path: str | Path, dataset: DispersionDataset) -> None:
    """Columns ``omega, k[, ell][, noise_sigma]``.

    ``noise_sigma`` is written, on every row, only when it is nonzero.
    """
    header = ["omega", "k"]
    cols = [[_fmt(w) for w in dataset.omega], [_fmt(k) for k in dataset.k]]
    if dataset.ell is not None:
        header.append("ell")
        cols.append([int(e) for e in dataset.ell])
    if dataset.noise_sigma:
        header.append("noise_sigma")
        cols.append([_fmt(dataset.noise_sigma)] * len(dataset))
    _write_rows(path, header, zip(*cols))


def read_dataset_csv(path: str | Path) -> DispersionDataset:
    """Read a file written by :func:`write_dataset_csv`.

    Raises
    ------
    ValueError
        If the header is not ``omega, k[, ell][, noise_sigma]`` or the
        noise level differs between rows.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [h.strip() for h in header]
        if cols[:2] != ["omega", "k"]:
            raise ValueError(
                f"expected columns omega,k[,ell][,noise_sigma]; got {cols}"
            )
        labeled = len(cols) >= 3 and cols[2] == "ell"
        sigma_col = cols.index("noise_sigma") if "noise_sigma" in cols else None
        omega, k, ell, sigma = [], [], [], set()
        for row in reader:
            if not row:
                continue
            omega.append(float(row[0]))
            k.append(float(row[1]))
            if labeled:
                ell.append(int(row[2]))
            if sigma_col is not None:
                sigma.add(float(row[sigma_col]))
    if len(sigma) > 1:
        raise ValueError(f"noise_sigma differs between rows: {sorted(sigma)}")
    return DispersionDataset(
        omega=np.array(omega),
        k=np.array(k),
        ell=np.array(ell, dtype=int) if labeled else None,
        noise_sigma=sigma.pop() if sigma else None,
    )


def write_weyl_csv(path: str | Path, rows) -> None:
    """Columns ``omega, y, count, prediction, proven, rel_error``.

    ``rows`` yields tuples in that order; ``proven`` is emitted as
    true/false.
    """
    out = []
    for omega, y, count, prediction, proven, rel_error in rows:
        out.append(
            (
                _fmt(omega),
                _fmt(y),
                int(count),
                _fmt(prediction),
                "true" if proven else "false",
                _fmt(rel_error),
            )
        )
    _write_rows(path, ("omega", "y", "count", "prediction", "proven", "rel_error"), out)


def write_mode_csv(path: str | Path, z, phi, mu_dphi) -> None:
    """Columns ``z, phi, mu_dphi`` on the given depth grid."""
    rows = [(_fmt(zz), _fmt(p), _fmt(s)) for zz, p, s in zip(z, phi, mu_dphi)]
    _write_rows(path, ("z", "phi", "mu_dphi"), rows)
