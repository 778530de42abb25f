import json
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.fixture()
def medium_b_swapped_config(tmp_path):
    path = tmp_path / "medium_b_swapped.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "layers": [
                    {"c": 1818.0, "rho": 1.0, "thickness": 100.0},
                    {"c": 1000.0, "rho": 1.0, "thickness": 100.0},
                    {"c": 10000.0, "rho": 1.0},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture()
def medium_b_config(tmp_path):
    path = tmp_path / "medium_b.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "layers": [
                    {"c": 1000.0, "rho": 1.0, "thickness": 100.0},
                    {"c": 1818.0, "rho": 1.0, "thickness": 100.0},
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


def test_count_at_the_halfspace_slowness_counts_every_root(medium_a_config, capsys):
    # y = 1/c_inf is on the strip: every one of A's modes at omega = 100
    assert run(["count", "--medium", medium_a_config, "--omega", "100", "--y", "1e-4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "count 4"


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


@pytest.mark.parametrize("config, c, order", [
    ("medium_b_config", (1000.0, 1818.0), "slow layer on top"),
    ("medium_b_swapped_config", (1818.0, 1000.0), "fast layer on top"),
])
def test_synth_invert_two_layers(tmp_path, capsys, request, config, c, order):
    # ROADMAP criterion 8's tolerances: velocities within 1%, thicknesses 10%
    out = tmp_path / "s"
    assert run(
        ["synth", "--medium", request.getfixturevalue(config), "--omega-min", "1",
         "--omega-max", "1000", "--omega-step", "1", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    assert run(
        ["invert", "--data", str(out / "dataset.csv"), "--mode", "n2", "--out", str(out)]
    ) == 0
    report = (out / "report.txt").read_text()
    assert capsys.readouterr().out == report
    lines = report.splitlines()
    rows = {line.split()[0]: line.split(None, 2)[1:] for line in lines[1:]}
    for name, want in zip(("c1", "c2", "c3"), (*c, 10000.0)):
        assert float(rows[name][0]) == pytest.approx(want, rel=0.01)
    for name in ("T1", "T2"):
        assert float(rows[name][0]) == pytest.approx(100.0, rel=0.10)
    assert order in rows["c1"][1]
    assert lines[-1] == "note: densities assumed equal (not identified by these rules)"


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


@pytest.mark.parametrize(
    "body, message",
    [
        ("1.0,0.5,1\n2.0\n", "column"),  # a row with too few columns
        ("1.0,0.5,1.5\n", "1.5"),  # a label that is not an integer
        ("100,0.095,0\n100,0.09,1\n", ">= 1"),  # a label below 1
        ("inf,2.0,1\n", "got inf"),  # a non-finite frequency
    ],
)
def test_malformed_dataset_is_data_error(tmp_path, capsys, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("omega,k,ell\n" + body)
    assert run(["invert", "--data", str(path), "--mode", "n1", "--rho1", "1.0",
                "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trace", "weyl", "synth"])
@pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf"])
def test_bad_omega_step_is_data_error(tmp_path, medium_a_config, capsys, command, step):
    extra = ["--y", "2e-4"] if command == "weyl" else []
    assert run([command, "--medium", medium_a_config, "--omega-max", "10",
                "--omega-step", step, "--out", str(tmp_path), *extra]) == 2
    assert "error: --omega-step" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trace", "weyl", "synth"])
@pytest.mark.parametrize("bound", ["--omega-min=nan", "--omega-max=nan",
                                   "--omega-min=-inf", "--omega-max=inf"])
def test_non_finite_omega_bound_is_data_error(tmp_path, medium_a_config, capsys,
                                              command, bound):
    extra = ["--y", "2e-4"] if command == "weyl" else []
    assert run([command, "--medium", medium_a_config, "--omega-max", "10", bound,
                "--out", str(tmp_path), *extra]) == 2
    flag = bound.split("=")[0]
    assert f"error: {flag} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trace", "weyl", "synth"])
def test_empty_omega_grid_is_data_error(tmp_path, medium_a_config, capsys, command):
    extra = ["--y", "2e-4"] if command == "weyl" else []
    assert run([command, "--medium", medium_a_config, "--omega-min", "5", "--omega-max", "1",
                "--out", str(tmp_path), *extra]) == 2
    assert "error: empty frequency grid" in capsys.readouterr().err


# without the check, np.arange asks for 7.45 GiB and 7.11 PiB: the child runs
# under a 1 GiB address-space limit
_GRID_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from lovedisp.cli import run
for step in ("1", "1e-3"):
    omega_max = "1e9" if step == "1" else "1e12"
    print(run(["trace", "--medium", sys.argv[1], "--omega-max", omega_max,
               "--omega-step", step, "--out", sys.argv[2]]))
"""


def test_huge_omega_grid_is_refused_before_allocating(tmp_path, medium_a_config):
    import lovedisp

    src = str(Path(lovedisp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _GRID_CHILD, medium_a_config, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["3", "3"], done.stderr
    assert "node count is 1000000001, over the per-call budget" in done.stderr
    assert "node count is 999999999999751, over" in done.stderr
    assert not (tmp_path / "branches.csv").exists()


def test_synth_negative_noise_is_data_error(tmp_path, medium_a_config, capsys):
    assert run(["synth", "--medium", medium_a_config, "--omega-max", "10",
                "--noise", "-1", "--out", str(tmp_path)]) == 2
    assert "error: noise_sigma" in capsys.readouterr().err
    assert not (tmp_path / "dataset.csv").exists()


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


def test_mode_command_takes_the_depth_grid_end(tmp_path, medium_a_config):
    k = 100.0 * float(roots_at_omega(load_medium(medium_a_config), 100.0)[0])
    out = tmp_path / "m"
    assert run(["mode", "--medium", medium_a_config, "--omega", "100", "--k", repr(k),
                "--z-max", "300", "--z-points", "7", "--out", str(out)]) == 0
    z = [float(row.split(",")[0]) for row in (out / "mode.csv").read_text().splitlines()[1:]]
    assert z == np.linspace(0.0, 300.0, 7).tolist()


@pytest.mark.parametrize(
    "flag, value", [("--z-max", "-50"), ("--z-max", "nan"), ("--z-max", "inf"),
                    ("--z-points", "0"), ("--z-points", "1")]
)
def test_mode_bad_depth_grid_is_data_error(tmp_path, medium_a_config, capsys, flag, value):
    k = 100.0 * float(roots_at_omega(load_medium(medium_a_config), 100.0)[0])
    out = tmp_path / "m"
    code = run(["mode", "--medium", medium_a_config, "--omega", "100", "--k", repr(k),
                flag, value, "--out", str(out)])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_mode_over_budget_depth_grid_is_refused(tmp_path, medium_a_config, capsys):
    # checked before np.linspace: 4e9 points died of an uncaught memory error
    k = 100.0 * float(roots_at_omega(load_medium(medium_a_config), 100.0)[0])
    out = tmp_path / "m"
    code = run(["mode", "--medium", medium_a_config, "--omega", "100", "--k", repr(k),
                "--z-points", str(2**22 + 1), "--out", str(out)])
    assert code == 3
    assert "--z-points is 4194305, over the per-call budget" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_command(medium_a_config, capsys):
    code = run(["oracle", "--medium", medium_a_config, "--samples", "20", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    worst = float(out.splitlines()[1].split()[1])
    assert worst < 1e-8


def test_oracle_on_nearly_equal_velocities_is_data_error(tmp_path):
    # every slowness of this domain lies within the 1e-6 margin of a layer
    # slowness, so redrawing until one does not would never return
    medium = tmp_path / "near.json"
    medium.write_text(json.dumps({"layers": [
        {"c": 1000.0, "rho": 1.0, "thickness": 100.0}, {"c": 1000.0005, "rho": 1.0}]}))
    import lovedisp

    src = str(Path(lovedisp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    child = "import sys; from lovedisp.cli import run; sys.exit(run(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", child, "oracle", "--medium", str(medium)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "1e-6" in done.stderr
    assert done.stdout == ""


def test_malformed_medium_config_is_data_error(tmp_path):
    # a layer that is not a mapping crashed the CLI with a TypeError (exit 1)
    medium = tmp_path / "bad.json"
    medium.write_text(json.dumps({"layers": [1, 2]}))
    import lovedisp

    src = str(Path(lovedisp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    child = "import sys; from lovedisp.cli import run; sys.exit(run(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", child, "count", "--medium", str(medium),
                           "--omega", "10", "--y", "5e-4"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: layer 1: ")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_oracle_without_samples_is_data_error(medium_a_config, capsys, samples):
    # a check of no samples checks nothing, so it must not report success
    code = run(["oracle", "--medium", medium_a_config, "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "--samples" in captured.err
    assert captured.out == ""


def test_one_parser_serves_every_call(tmp_path, medium_a_config, capsys):
    # the parser is built once per process: calls that reuse it, with
    # different subcommands and with defaults after overrides, exit, print
    # and write exactly what calls on a freshly built parser do
    import lovedisp.cli as cli_mod

    def outcome(root, fresh):
        m = medium_a_config
        calls = [
            ["synth", "--medium", m, "--omega-max", "60", "--noise", "1e-3", "--seed", "5",
             "--out", str(root / "noisy")],
            ["count", "--medium", m, "--omega", "100", "--y", "5e-4"],
            ["synth", "--medium", m, "--omega-max", "60", "--out", str(root / "clean")],
            ["nonsense"],
            ["trace", "--medium", m, "--omega-min", "1", "--omega-max", "40",
             "--omega-step", "0.5", "--out", str(root / "fine")],
            ["trace", "--medium", m, "--omega-max", "40", "--out", str(root / "default")],
            ["oracle", "--medium", m, "--samples", "3"],
            ["invert", "--data", str(root / "clean" / "dataset.csv"), "--mode", "n1",
             "--rho1", "1.0", "--out", str(root / "inv")],
        ]
        printed = []
        for argv in calls:
            if fresh:
                cli_mod._build_parser.cache_clear()
            code = run(argv)
            cap = capsys.readouterr()
            printed.append((code, cap.out.replace(str(root), "<out>"), cap.err))
        files = {p.relative_to(root).as_posix(): p.read_bytes()
                 for p in sorted(root.rglob("*")) if p.is_file()}
        return printed, files

    fresh = outcome(tmp_path / "fresh", fresh=True)
    reused = outcome(tmp_path / "reused", fresh=False)
    assert [code for code, _, _ in fresh[0]] == [0, 0, 0, 1, 0, 0, 0, 0]
    assert len(fresh[1]) == 7
    assert reused == fresh
    assert cli_mod._build_parser() is cli_mod._build_parser()


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


@pytest.mark.parametrize("free", [None, "mu,bogus"], ids=["ls-without-medium", "unknown-free"])
def test_invert_ls_usage_errors(tmp_path, medium_a_config, free):
    out = tmp_path / "x"
    assert run(
        ["synth", "--medium", medium_a_config, "--omega-max", "80",
         "--omega-step", "2.0", "--out", str(out)]
    ) == 0
    argv = ["invert", "--data", str(out / "dataset.csv"), "--mode", "ls"]
    if free is not None:
        argv += ["--medium", medium_a_config, "--free", free]
    assert run(argv) == 1


@pytest.mark.parametrize("data", ["missing", "malformed"])
@pytest.mark.parametrize("case", ["n1-without-rho1", "ls-without-medium", "unknown-free"])
def test_invert_usage_errors_come_before_the_data(tmp_path, medium_a_config, capsys,
                                                  data, case):
    path = tmp_path / "dataset.csv"
    if data == "malformed":
        path.write_text("omega,k\n10,abc\n")
    argv = {"n1-without-rho1": ["--mode", "n1"],
            "ls-without-medium": ["--mode", "ls"],
            "unknown-free": ["--mode", "ls", "--medium", medium_a_config, "--free", "mu,bogus"]}
    assert run(["invert", "--data", str(path), *argv[case]]) == 1
    assert "error:" not in capsys.readouterr().err


def test_mode_out_of_double_range_is_numerical_failure(
    tmp_path, medium_b_swapped_config, capsys
):
    medium = load_medium(medium_b_swapped_config)
    k = 12000.0 * float(roots_at_omega(medium, 12000.0)[0])
    code = run(["mode", "--medium", medium_b_swapped_config, "--omega", "12000",
                "--k", repr(k), "--out", str(tmp_path / "m")])
    assert code == 3
    assert "leaves double range" in capsys.readouterr().err


def test_level_outside_domain_is_data_error(medium_a_config, capsys):
    # a slowness outside the domain is an input error, not a numerical one
    assert run(["count", "--medium", medium_a_config, "--omega", "100",
                "--y", "2e-3"]) == 2
    assert "outside" in capsys.readouterr().err


def test_invert_least_squares_refines_thickness(tmp_path, medium_a_config):
    out = tmp_path / "s"
    assert run(
        ["synth", "--medium", medium_a_config, "--omega-max", "500",
         "--omega-step", "20", "--out", str(out)]
    ) == 0
    guess = tmp_path / "guess.json"
    config = json.loads(Path(medium_a_config).read_text())
    config["layers"][0]["thickness"] = 105.0
    guess.write_text(json.dumps(config))
    assert run(
        ["invert", "--data", str(out / "dataset.csv"), "--mode", "ls",
         "--medium", str(guess), "--free", "thickness", "--out", str(out)]
    ) == 0
    rows = (out / "report.txt").read_text().splitlines()[1:]
    values = {line.split()[0]: float(line.split()[1]) for line in rows}
    assert values["thickness1"] == pytest.approx(100.0, abs=1e-6)
