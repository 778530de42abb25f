"""CSV readers and writers for branch, cutoff, dataset, comparison and mode tables.

Every table is written by one writer, :func:`_write_columns`, from its
columns: floats with 17 significant digits so files round-trip
bit-exactly, and a non-finite float refused.  Branch rows come from the
columns of a :class:`~lovedisp.branch.BranchSet` table, by (ell, omega),
and the dataset body is read in one numpy call, given the file's path:
numpy reads a path in chunks, but a file object one Python line at a
time.  Tables are written ``_CHUNK_ROWS`` rows at a time, each chunk
formatted with one ``%`` per row and written in one call: the same bytes
``np.savetxt`` writes, without its call per row, and the text held at
once stays bounded.
"""

from __future__ import annotations

import warnings
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


_CHUNK_ROWS = 4096  # rows of a numeric table formatted per write


def _write_columns(path, header, columns, fmt) -> None:
    """One row per entry of the equal-length ``columns``, formatted by ``fmt``.

    ``fmt`` is one ``%`` format for every column or one per column.
    """
    columns = [np.asarray(c) for c in columns]
    for c in columns:
        if c.dtype.kind == "f" and (bad := ~np.isfinite(c)).any():
            raise ValueError(f"refusing to write non-finite value {c[bad][0]!r}")
    if isinstance(fmt, str):
        fmt = [fmt] * len(columns)
    row = ",".join(fmt) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = zip(*[c[s : s + _CHUNK_ROWS].tolist() for c in columns])
            fh.write("".join([row % r for r in chunk]))


def write_branches_csv(path: str | Path, branchset: BranchSet) -> None:
    """Columns ``ell, omega, y, k`` sorted by (ell, omega)."""
    rank, node = np.nonzero(~np.isnan(branchset.y.T))
    w, y = branchset.omega_grid[node], branchset.y[node, rank]
    _write_columns(path, ("ell", "omega", "y", "k"), (rank + 1, w, y, w * y),
                   ("%d", "%.17g", "%.17g", "%.17g"))


def write_cutoffs_csv(path: str | Path, branchset: BranchSet) -> None:
    """Columns ``ell, omega_ell``."""
    cuts = branchset.cutoffs
    _write_columns(path, ("ell", "omega_ell"), (np.arange(1, len(cuts) + 1), cuts),
                   ("%d", "%.17g"))


def write_dataset_csv(path: str | Path, dataset: DispersionDataset) -> None:
    """Columns ``omega, k[, ell][, noise_sigma]``.

    ``noise_sigma`` is written, on every row, only when it is nonzero.
    """
    header = ["omega", "k"]
    cols = [dataset.omega, dataset.k]
    fmt = ["%.17g", "%.17g"]
    if dataset.ell is not None:
        header.append("ell")
        cols.append(dataset.ell)
        fmt.append("%d")
    if dataset.noise_sigma:
        header.append("noise_sigma")
        cols.append(np.full(len(dataset), dataset.noise_sigma))
        fmt.append("%.17g")
    _write_columns(path, header, cols, fmt)


def read_dataset_csv(path: str | Path) -> DispersionDataset:
    """Read a file written by :func:`write_dataset_csv`.

    The header is checked and the body read in one numpy call; blank lines
    are skipped, and columns are found by name, any others ignored.  The
    body is read from ``path``, not from an open file: ``np.loadtxt``
    iterates a file object line by line in Python, but reads a path in
    chunks.

    The samples are stored in the order :class:`DispersionDataset` gives
    them, by frequency, then by label or by descending k, so the same rows
    in any order read as the same dataset.

    Raises
    ------
    ValueError
        If the header does not begin ``omega, k``, a row lacks one of its
        columns, a value does not parse (``ell`` must be an integer), or the
        noise level differs between rows.  A row error names the file, its
        1-based line and the column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cols = [h.strip() for h in fh.readline().split(",")]
    if cols[:2] != ["omega", "k"]:
        raise ValueError(
            f"expected columns omega,k[,ell][,noise_sigma]; got {cols}"
        )
    names = ["omega", "k"] + [n for n in ("ell", "noise_sigma") if n in cols]
    dtype = [(n, int if n == "ell" else float) for n in names]
    with warnings.catch_warnings():
        # a header with no rows is an empty dataset, not a mistake
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                               skiprows=1, encoding="utf-8",
                               usecols=[cols.index(n) for n in names], ndmin=1)
        except ValueError as exc:
            # numpy's row number counts neither the header nor blank lines
            if (err := _first_bad_line(path, cols, names)) is None:
                raise
            raise err from exc
    sigma = table["noise_sigma"] if "noise_sigma" in names else table["omega"][:0]
    # np.unique, which counts NaNs as equal, only where a row differs
    if (sigma != sigma[:1]).any() and len(levels := np.unique(sigma)) > 1:
        raise ValueError(f"noise_sigma differs between rows: {levels.tolist()}")
    return DispersionDataset(
        omega=table["omega"],
        k=table["k"],
        ell=table["ell"] if "ell" in names else None,
        noise_sigma=float(sigma[0]) if len(sigma) else None,
    )


def _first_bad_line(path, cols, names) -> ValueError | None:
    """The error for the first body line that lacks a ``names`` column or
    holds a value there that does not parse, or None if no line does.

    Like numpy, it skips empty lines and refuses the digit separators that
    Python's ``int`` and ``float`` accept.
    """
    wanted = [(n, cols.index(n), int if n == "ell" else float) for n in names]
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line_no, line in enumerate(fh, start=2):
            if not (line := line.rstrip("\n")):
                continue
            fields = line.split(",")
            for name, i, parse in wanted:
                at = f"{path}, line {line_no}, column {i + 1} ({name})"
                if i >= len(fields):
                    return ValueError(f"{at}: missing; the line has {len(fields)} field(s)")
                try:
                    parse(fields[i].replace("_", "?"))
                except ValueError:
                    kind = "an integer" if parse is int else "a number"
                    return ValueError(f"{at}: {fields[i]!r} is not {kind}")
    return None


def write_weyl_csv(
    path: str | Path, omega, y, count, prediction, proven, rel_error
) -> None:
    """Columns ``omega, y, count, prediction, proven, rel_error``, one argument
    each; ``proven`` is emitted as true/false."""
    header = ("omega", "y", "count", "prediction", "proven", "rel_error")
    proven = np.where(proven, "true", "false")
    _write_columns(path, header, (omega, y, count, prediction, proven, rel_error),
                   ("%.17g", "%.17g", "%d", "%.17g", "%s", "%.17g"))


def write_mode_csv(path: str | Path, z, phi, mu_dphi) -> None:
    """Columns ``z, phi, mu_dphi`` on the given depth grid."""
    _write_columns(path, ("z", "phi", "mu_dphi"), (z, phi, mu_dphi), "%.17g")
