import json

import numpy as np
import pytest

import lovedisp.io as lio
from lovedisp import load_medium, roots_at_omega
from lovedisp.cli import run


@pytest.fixture()
def medium_a_config(tmp_path):
    path = tmp_path / "medium_a.json"
    path.write_text(
        json.dumps(
            {
                "n": 1,
                "layers": [
                    {"c": 1000.0, "rho": 1.0, "thickness": 100.0},
                    {"c": 10000.0, "rho": 1.0},
                ],
            }
        )
    )
    return str(path)


def test_trace_outputs(tmp_path, medium_a_config):
    out = tmp_path / "out"
    code = run(
        [
            "trace",
            "--medium", medium_a_config,
            "--omega-max", "100",
            "--omega-step", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    branches = (out / "branches.csv").read_text().splitlines()
    assert branches[0] == "ell,omega,y,k"
    assert len(branches) > 200
    ells = [int(line.split(",")[0]) for line in branches[1:]]
    assert ells == sorted(ells)  # sorted by (ell, omega)
    for line in branches[1:]:
        for field in line.split(",")[1:]:
            assert np.isfinite(float(field))
    cutoffs = (out / "cutoffs.csv").read_text().splitlines()
    assert cutoffs[0] == "ell,omega_ell"
    assert cutoffs[1] == "1,0"
    assert float(cutoffs[2].split(",")[1]) == pytest.approx(31.574194169982764, rel=1e-9)


def test_trace_deterministic(tmp_path, medium_a_config):
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert run(
            ["trace", "--medium", medium_a_config, "--omega-max", "60",
             "--omega-step", "1.0", "--out", str(out)]
        ) == 0
        outs.append((out / "branches.csv").read_bytes())
    assert outs[0] == outs[1]


def test_count_command(medium_a_config, capsys):
    code = run(
        ["count", "--medium", medium_a_config, "--omega", "1000", "--y", "1.00001e-4"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "count 32"
    assert float(lines[1].split()[1]) == pytest.approx(31.6714, abs=1e-3)
    assert lines[2] == "proven true"


def test_weyl_command(tmp_path, medium_a_config):
    out = tmp_path / "w"
    code = run(
        ["weyl", "--medium", medium_a_config, "--omega-min", "200",
         "--omega-max", "400", "--omega-step", "50", "--y", "4e-4", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "weyl.csv").read_text().splitlines()
    assert rows[0] == "omega,y,count,prediction,proven,rel_error"
    assert len(rows) == 6
    assert all(row.split(",")[4] == "true" for row in rows[1:])


def test_synth_invert_roundtrip(tmp_path, medium_a_config, capsys):
    out = tmp_path / "s"
    assert run(
        ["synth", "--medium", medium_a_config, "--omega-max", "600",
         "--omega-step", "1.0", "--noise", "0", "--seed", "0", "--out", str(out)]
    ) == 0
    assert run(
        ["invert", "--data", str(out / "dataset.csv"), "--mode", "n1",
         "--rho1", "1.0", "--out", str(out)]
    ) == 0
    report = (out / "report.txt").read_text()
    values = {
        line.split()[0]: float(line.split()[1])
        for line in report.splitlines()
        if line and line.split()[0] in ("c1", "c2", "H", "rho2")
    }
    assert values["c1"] == pytest.approx(1000.0, rel=0.01)
    assert values["c2"] == pytest.approx(10000.0, rel=0.01)
    assert values["H"] == pytest.approx(100.0, rel=0.02)
    assert values["rho2"] == pytest.approx(1.0, rel=0.05)


def test_noisy_synth_invert_roundtrip(tmp_path, medium_a_config):
    # noise swaps the ranks near 577 here; the noise level written with the
    # data exempts its labels from the noiseless rank check
    out = tmp_path / "s"
    assert run(
        ["synth", "--medium", medium_a_config, "--omega-max", "600",
         "--omega-step", "1.0", "--noise", "1e-3", "--seed", "7", "--out", str(out)]
    ) == 0
    data = lio.read_dataset_csv(out / "dataset.csv")
    assert data.noise_sigma == 1e-3
    assert run(
        ["invert", "--data", str(out / "dataset.csv"), "--mode", "n1",
         "--rho1", "1.0", "--out", str(out)]
    ) == 0


def test_noiseless_swapped_labels_rejected(tmp_path, capsys):
    path = tmp_path / "swapped.csv"
    path.write_text("omega,k,ell\n100,0.09,1\n100,0.095,2\n")
    assert run(["invert", "--data", str(path), "--mode", "n1", "--rho1", "1.0",
                "--out", str(tmp_path)]) == 2
    assert "inconsistent with descending k" in capsys.readouterr().err


def test_dataset_noise_sigma_must_be_constant(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "omega,k,ell,noise_sigma\n100,0.095,1,0.001\n100,0.09,2,0.002\n"
    )
    with pytest.raises(ValueError, match="noise_sigma"):
        lio.read_dataset_csv(path)


def test_synth_deterministic(tmp_path, medium_a_config):
    blobs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        assert run(
            ["synth", "--medium", medium_a_config, "--omega-max", "120",
             "--omega-step", "2.0", "--noise", "1e-3", "--seed", "11", "--out", str(out)]
        ) == 0
        blobs.append((out / "dataset.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_mode_command(tmp_path, medium_a_config, capsys):
    medium = load_medium(medium_a_config)
    k = 100.0 * roots_at_omega(medium, 100.0)[0]
    out = tmp_path / "m"
    code = run(
        ["mode", "--medium", medium_a_config, "--omega", "100", "--k", str(k),
         "--out", str(out)]
    )
    assert code == 0
    rows = (out / "mode.csv").read_text().splitlines()
    assert rows[0] == "z,phi,mu_dphi"
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert float(first[2]) == 0.0
    text = capsys.readouterr().out
    assert "square_integrable true" in text


def test_oracle_command(medium_a_config, capsys):
    code = run(["oracle", "--medium", medium_a_config, "--samples", "20", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    worst = float(out.splitlines()[1].split()[1])
    assert worst < 1e-8


def test_usage_error_exit_code():
    assert run(["nonsense"]) == 1
    assert run([]) == 1


def test_data_error_exit_code(tmp_path, capsys):
    assert run(["count", "--medium", str(tmp_path / "nope.json"),
                "--omega", "1", "--y", "2e-4"]) == 2


def test_invert_missing_rho1_is_usage_error(tmp_path, medium_a_config):
    out = tmp_path / "x"
    assert run(
        ["synth", "--medium", medium_a_config, "--omega-max", "80",
         "--omega-step", "2.0", "--out", str(out)]
    ) == 0
    assert run(["invert", "--data", str(out / "dataset.csv"), "--mode", "n1"]) == 1
