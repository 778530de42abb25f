import numpy as np
import pytest

import lovedisp.io as lio
from lovedisp import (
    DispersionDataset,
    branchset_from_dataset,
    synthesize_observations,
    trace_branches,
)


def _columns(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


@pytest.mark.parametrize("name", ["medium_a", "medium_b"])
def test_branches_csv_survives_dataset_roundtrip(tmp_path, request, name):
    # trace -> samples -> rank table gives the same file: ranks and
    # frequencies byte for byte, slownesses and wavenumbers to the ulps of
    # k = omega y and y = k / omega
    medium = request.getfixturevalue(name)
    grid = np.arange(2.0, 300.01, 2.0)
    bs = trace_branches(medium, grid)
    rebuilt = branchset_from_dataset(synthesize_observations(medium, grid, branchset=bs))
    lio.write_branches_csv(tmp_path / "traced.csv", bs)
    lio.write_branches_csv(tmp_path / "rebuilt.csv", rebuilt)
    traced = (tmp_path / "traced.csv").read_text().splitlines()
    again = (tmp_path / "rebuilt.csv").read_text().splitlines()
    assert len(again) == len(traced) > 1
    assert [r.split(",")[:2] for r in again] == [r.split(",")[:2] for r in traced]
    a, b = _columns(tmp_path / "traced.csv"), _columns(tmp_path / "rebuilt.csv")
    np.testing.assert_array_max_ulp(a[2:], b[2:], maxulp=2)


@pytest.mark.parametrize("labels, sigma", [(False, 0.0), (True, 0.0), (True, 1e-3)])
def test_dataset_csv_roundtrip_is_byte_exact(tmp_path, medium_a, labels, sigma):
    grid = np.arange(5.0, 400.01, 5.0)
    ds = synthesize_observations(medium_a, grid, noise_sigma=sigma, seed=4)
    if not labels:
        ds = DispersionDataset(omega=ds.omega, k=ds.k)
    lio.write_dataset_csv(tmp_path / "first.csv", ds)
    back = lio.read_dataset_csv(tmp_path / "first.csv")
    lio.write_dataset_csv(tmp_path / "second.csv", back)
    first = (tmp_path / "first.csv").read_bytes()
    assert (tmp_path / "second.csv").read_bytes() == first
    assert np.array_equal(back.k, ds.k)
    assert (back.ell is None) == (not labels)
    assert (back.noise_sigma or 0.0) == sigma
    assert first.count(b"\n") == len(ds) + 1


def test_read_rejects_a_header_without_omega_k(tmp_path):
    (tmp_path / "d.csv").write_text("k,omega\n0.1,100\n")
    with pytest.raises(ValueError, match="expected columns omega,k"):
        lio.read_dataset_csv(tmp_path / "d.csv")


@pytest.mark.parametrize(
    "text, where",
    [
        ("omega,k,ell\n10,0.01,1.5\n", "line 2, column 3 (ell): '1.5' is not an integer"),
        ("omega,k\n10,0.01\n20\n", "line 3, column 2 (k): missing"),
        # the blank line 3 still counts
        ("omega,k\n10,0.01\n\n20,abc\n", "line 4, column 2 (k): 'abc' is not a number"),
    ],
)
def test_parse_errors_name_the_file_line(tmp_path, text, where):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        lio.read_dataset_csv(path)
    assert str(exc.value).startswith(f"{path}, {where}")


def test_write_refuses_non_finite(tmp_path):
    with pytest.raises(ValueError, match="non-finite"):
        lio.write_mode_csv(tmp_path / "m.csv", [0.0, 1.0], [1.0, np.inf], [0.0, 0.0])


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 20_000])
@pytest.mark.parametrize("fmt", [["%d", "%.17g", "%.17g"], "%.17g"])
def test_write_columns_matches_savetxt(tmp_path, rows, fmt):
    # chunk edges included: the same bytes as np.savetxt on the same table
    rng = np.random.default_rng(rows)
    columns = (np.arange(1, rows + 1), rng.normal(size=rows) * 1e3,
               np.exp(rng.normal(size=rows) * 20.0))
    lio._write_columns(tmp_path / "got.csv", ("ell", "x", "y"), columns, fmt)
    with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt=fmt, delimiter=",",
                   header="ell,x,y", comments="")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_header_only_dataset_is_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("omega,k,ell\n")
    data = lio.read_dataset_csv(path)
    assert len(data) == 0 and data.ell is not None


def test_dataset_columns_found_by_name(tmp_path):
    # labels after the noise column are read, not dropped
    path = tmp_path / "reordered.csv"
    path.write_text("omega,k,noise_sigma,ell\n100,0.095,0.001,1\n100,0.09,0.001,2\n")
    data = lio.read_dataset_csv(path)
    assert data.ell.tolist() == [1, 2]
    assert data.noise_sigma == 0.001


def test_crlf_blank_lines_and_column_order_read_as_plain_lf(tmp_path, medium_a):
    ds = synthesize_observations(medium_a, np.arange(5.0, 200.01, 5.0), noise_sigma=1e-3)
    plain = tmp_path / "plain.csv"
    lio.write_dataset_csv(plain, ds)
    header, *rows = plain.read_text().splitlines()
    # the twin: ell and noise_sigma swap places, CRLF line ends, a blank
    # line before every seventh row and at the end
    swap = [",".join(r.split(",")[i] for i in (0, 1, 3, 2)) for r in [header, *rows]]
    body = [r if i % 7 else "\r\n" + r for i, r in enumerate(swap[1:])]
    twin = tmp_path / "twin.csv"
    twin.write_bytes(("\r\n".join([swap[0], *body]) + "\r\n\r\n").encode())
    a, b = lio.read_dataset_csv(plain), lio.read_dataset_csv(twin)
    assert b"\r\n\r\n" in twin.read_bytes() and b.noise_sigma == a.noise_sigma == 1e-3
    for name in ("omega", "k", "ell"):
        assert np.array_equal(getattr(b, name), getattr(a, name))
