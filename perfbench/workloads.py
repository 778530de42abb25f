"""The three workloads: seeded inputs, references, operations and checks.

Each workload builds its inputs from the seed (``generate``, timed as
set-up), computes its references (``references``, not timed), and hands
out a fixed list of operations.  An operation's ``run`` is timed; its
``check`` compares the output with a closed form or an independent oracle
and returns ``None`` or the reason it failed.  ``--seconds`` sets how many
operations a run holds; the sizes below make one run last about that long
on a 2-core x86 machine at the commit that introduced the benchmark, and
keep the operation list, and so the failure count, the same for a seed.
"""

import contextlib
import csv
import io
import json
import statistics
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

MEDIUM_A = {"mu": np.array([1e6, 1e8]), "rho": np.ones(2), "thickness": np.array([100.0])}
MEDIUM_B = {
    "mu": np.array([1e6, 1818.0**2, 1e8]),
    "rho": np.ones(3),
    "thickness": np.array([100.0, 100.0]),
}
MEDIUM_BS = {
    "mu": np.array([1818.0**2, 1e6, 1e8]),
    "rho": np.ones(3),
    "thickness": np.array([100.0, 100.0]),
}


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable
    work: int = 1
    tags: dict = field(default_factory=dict)


class Workload:
    """Seeded inputs, references and operations of one workload."""

    name = ""

    def __init__(self, ld, seed, seconds, work):
        self.ld, self.seed, self.work = ld, seed, work
        self.diagnostics = {}  # mode diagnostics seen by the checks, by operation

    def prepare(self):
        """Once-per-checkout inputs, kept out of the set-up time."""

    def generate(self):
        raise NotImplementedError

    def references(self):
        """Reference values for the checks, computed before timing."""

    def ops(self):
        raise NotImplementedError


def _cli(ld, argv):
    """An operation running ``lovedisp <argv>`` in-process; returns (code, output)."""
    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = ld.cli.run(argv)
        return code, sink.getvalue()
    return run


def _exit_reason(code, text):
    lines = text.strip().splitlines()
    return f"exit {code}: {lines[-1] if lines else ''}"


def _rel(a, b):
    return abs(a - b) / abs(b)


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


# ---------------------------------------------------------------------------
# trace-fixed: the CLI's dense sweep on fixed media, plus cutoff searches

TRACE_GRID = (0.5, 150.0, 0.5)  # omega min, max, step for A, B and swapped B
RANDOM_GRID = (1.0, 300.0, 1.0)  # for the random 4-layer medium
TRACE_ROUND_S = 12.0  # seconds of --seconds per round of jobs
CUTOFF_PAIRS = 4  # cutoff_frequencies(A, 20) and (B, 20) pairs per round
FD_NODES = 4  # grid nodes per job checked against FD counts


def _grid(lo, hi, step):
    # the CLI's own grid rule (lovedisp trace --omega-min/--omega-max/--omega-step)
    g = np.arange(lo, hi + 0.5 * step, step)
    return g[g > 0.0]


class TraceFixed(Workload):
    name = "trace-fixed"

    def __init__(self, ld, seed, seconds, work):
        super().__init__(ld, seed, seconds, work)
        self.rounds = max(1, round(seconds / TRACE_ROUND_S))

    def generate(self):
        rng = np.random.default_rng(self.seed)
        self.media = {"A": MEDIUM_A, "B": MEDIUM_B, "Bs": MEDIUM_BS}
        self.jobs = []
        for r in range(self.rounds):
            key = f"R4-{r}"
            self.media[key] = oracle.random_medium(rng, 4)
            jobs = [("A", TRACE_GRID), ("B", TRACE_GRID), ("Bs", TRACE_GRID), (key, RANDOM_GRID)]
            self.jobs += [jobs[i] for i in rng.permutation(len(jobs))]
        (self.work / "media").mkdir(parents=True, exist_ok=True)
        for key, m in self.media.items():
            (self.work / "media" / f"{key}.json").write_text(json.dumps(oracle.medium_config(m)))
        self.cutoff_media = {k: self.ld.Medium(**self.media[k]) for k in ("A", "B")}
        self.rng = rng

    def references(self):
        self.ref = {}
        for key, m in self.media.items():
            grid = _grid(*(RANDOM_GRID if key.startswith("R4") else TRACE_GRID))
            cut = self._cutoffs(m, grid[-1])
            nodes = np.sort(self.rng.choice(len(grid), FD_NODES, replace=False))
            lo, hi = self.ld.Medium(**m).slowness_domain
            levels = lo + (hi - lo) * self.rng.uniform(oracle.LEVEL_FLOOR, 0.95, FD_NODES)
            fd = []
            for i, y in zip(nodes, levels):
                count, screened, _ = oracle.fd_reference(
                    self.ld.fd_eigen_oracle, self.ld.Medium(**m), grid[i], [y]
                )
                fd.append((int(i), float(y), int(count[0]), bool(screened[0])))
            self.ref[key] = {"grid": grid, "cutoffs": cut, "fd": fd}
        self.ref["A"]["roots"] = oracle.single_layer_roots(
            MEDIUM_A, self.ref["A"]["grid"], len(self.ref["A"]["cutoffs"])
        )
        self.cutoff_ref = {k: oracle.cutoff_reference(self.media[k], 20) for k in ("A", "B")}

    @staticmethod
    def _cutoffs(m, omega_max):
        y0 = np.sqrt(m["rho"][-1] / m["mu"][-1])
        phase = omega_max * float(np.asarray(m["thickness"]) @ oracle.vertical_slowness(m, y0))
        return oracle.cutoff_reference(m, int(phase / np.pi) + 3)

    def ops(self):
        ops = []
        for n, (key, grid) in enumerate(self.jobs):
            out = self.work / "out" / f"{n}-{key}"
            argv = ["trace", "--medium", str(self.work / "media" / f"{key}.json"),
                    "--omega-min", repr(grid[0]), "--omega-max", repr(grid[1]),
                    "--omega-step", repr(grid[2]), "--out", str(out)]
            ops.append(Op("trace", _cli(self.ld, argv), self._check_trace(key, out),
                          work=len(self.ref[key]["grid"]), tags={"medium": key}))
        for _ in range(self.rounds * CUTOFF_PAIRS):
            for key in ("A", "B"):
                ops.append(Op("cutoffs", self._cutoff_call(key), self._check_cutoffs(key),
                              tags={"medium": key}))
        return ops

    def _cutoff_call(self, key):
        return lambda: self.ld.cutoff_frequencies(self.cutoff_media[key], 20)

    def _check_cutoffs(self, key):
        def check(got):
            ref = self.cutoff_ref[key]
            if len(got) != len(ref):
                return f"{len(got)} cutoffs, expected {len(ref)}"
            if abs(got[0]) > 1e-6 * ref[1] or np.max(np.abs(got[1:] - ref[1:]) / ref[1:]) > 1e-6:
                return "cutoff off its closed form by more than 1e-6"
            return None
        return check

    def _check_trace(self, key, out):
        def check(result):
            if result[0] != 0:
                return _exit_reason(*result)
            ref = self.ref[key]
            grid, cut = ref["grid"], ref["cutoffs"]
            ell, omega, y = _read_branches(out / "branches.csv")
            node = np.searchsorted(grid, omega)
            if np.any(node >= len(grid)) or np.any(grid[np.minimum(node, len(grid) - 1)] != omega):
                return "branch sample off the frequency grid"
            counts = np.bincount(node, minlength=len(grid))
            keep = ~oracle.near_cutoff(cut, grid)
            expect = oracle.counts_from_cutoffs(cut, grid)
            if np.any(counts[keep] != expect[keep]):
                i = np.flatnonzero(keep & (counts != expect))[0]
                return f"count {counts[i]} != {expect[i]} cutoffs below omega={grid[i]:g}"
            got_cut = _read_column(out / "cutoffs.csv", 1)
            if len(got_cut) != int(counts.max()):
                return "cutoff table length differs from the branch count"
            if abs(got_cut[0]) > 1e-6 * cut[1] or np.any(
                np.abs(got_cut[1:] - cut[1 : len(got_cut)]) > 1e-6 * cut[1 : len(got_cut)]
            ):
                return "cutoff off its closed form by more than 1e-6"
            for i, level, fd_count, screened in ref["fd"]:
                if not screened and int(np.sum(y[node == i] >= level)) != fd_count:
                    return f"count above y_q at omega={grid[i]:g} differs from FD"
            if "roots" in ref:
                want = ref["roots"][node, ell - 1]
                if not np.all(np.abs(y - want) <= 1e-9 * want):
                    return "slowness off its closed form by more than 1e-9"
            return None
        return check

    def summary(self, results):
        trace = [r for r in results if r["kind"] == "trace"]
        fixed = [r for r in trace if not r["medium"].startswith("R4")]
        wall = sum(r["seconds"] for r in trace)
        pairs = [r["seconds"] for r in results if r["kind"] == "cutoffs"]
        pair_ms = [500.0 * (a + b) for a, b in zip(pairs[::2], pairs[1::2])]
        passed = sum(r["work"] for r in trace if r["reason"] is None)
        named = {
            "trace_freqs_per_s": (passed / wall, "1/s"),
            "cutoffs_ms": (_median(pair_ms), "ms"),
            "cutoffs_A_ms": (1e3 * _median(pairs[::2]), "ms"),
            "cutoffs_B_ms": (1e3 * _median(pairs[1::2]), "ms"),
        }
        for r in trace:
            named[f"trace_{r['medium']}_s"] = (r["seconds"], "s")
        return {
            "work_per_s": (sum(r["work"] for r in fixed) / sum(r["seconds"] for r in fixed), "1/s"),
            "op_p50_ms": (_median(pair_ms), "ms"),
        }, named


def _read_branches(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    a = np.array([[float(v) for v in r[:3]] for r in rows]).reshape(-1, 3)
    return a[:, 0].astype(int), a[:, 1], a[:, 2]


def _read_column(path, col):
    with open(path, newline="") as fh:
        return np.array([float(r[col]) for r in list(csv.reader(fh))[1:]])


# ---------------------------------------------------------------------------
# query-random: isolated point queries on fresh random media, n = 1..5

QUERIES_PER_S = 40  # queries per second of --seconds
PHASE_RANGE = (10.0, 150.0)  # total layer phase at the half-space slowness


class QueryRandom(Workload):
    name = "query-random"

    def __init__(self, ld, seed, seconds, work):
        super().__init__(ld, seed, seconds, work)
        self.count = 5 * max(40, round(QUERIES_PER_S * seconds / 5))
        self.cache = work.parent / "cache" / f"query-refs-{seed}-{self.count}.json"

    def generate(self):
        rng = np.random.default_rng(self.seed)
        ns = rng.permutation(np.repeat(np.arange(1, 6), self.count // 5))
        self.queries = []
        for n in ns:
            arrays = oracle.random_medium(rng, int(n))
            m = self.ld.Medium(**arrays)
            lo, hi = m.slowness_domain
            rate = float(m.thickness @ oracle.vertical_slowness(arrays, lo))
            omega = rng.uniform(*PHASE_RANGE) / rate
            y_q = lo + (hi - lo) * rng.uniform(oracle.LEVEL_FLOOR, 0.95)
            self.queries.append((int(n), m, float(omega), float(y_q)))

    def references(self):
        """FD and determinant references per query, cached per seed and size."""
        if self.cache.exists():
            self.ref = json.loads(self.cache.read_text())
        else:
            self.ref = [self._reference(m, omega, y_q) for _, m, omega, y_q in self.queries]
            self.cache.parent.mkdir(parents=True, exist_ok=True)
            self.cache.write_text(json.dumps(self.ref))
        self.screened = sum(r["screened"] for r in self.ref)

    def _reference(self, m, omega, y_q):
        lo, hi = m.slowness_domain
        shifted = y_q - 1.0 / omega
        levels = [y_q] + ([shifted] if shifted >= lo + oracle.LEVEL_FLOOR * (hi - lo) else [])
        counts, screened, top = oracle.fd_reference(self.ld.fd_eigen_oracle, m, omega, levels)
        try:
            det = self.ld.determinant_oracle(m, omega, omega * y_q)
        except self.ld.DegeneratePoint:
            det = None
        return {
            "count": int(counts[0]),
            "shifted": int(counts[1]) if len(levels) > 1 and not screened[1] else None,
            "screened": bool(screened[0]),
            "top": top,
            "det": det,
            "weyl": _weyl(m, omega, y_q),
        }

    def ops(self):
        return [
            Op("query", self._query(m, omega, y_q), self._check(i), tags={"n": n})
            for i, (n, m, omega, y_q) in enumerate(self.queries)
        ]

    def _query(self, m, omega, y_q):
        ld = self.ld

        def run():
            roots = ld.roots_at_omega(m, omega)
            count = ld.mode_count(m, omega, y_q)
            acc = ld.accumulation_statistic(m, omega, y_q)
            weyl = ld.weyl_prediction(m, omega, y_q)
            value = ld.dispersion_value(m, omega, y_q)
            shape = ld.mode_shape(m, omega, omega * roots[0])
            diag = ld.mode_residuals(shape)
            return roots, count, acc, weyl, value, shape, diag
        return run

    def _check(self, i):
        n, m, omega, y_q = self.queries[i]
        ref = self.ref[i]

        def check(out):
            roots, count, acc, weyl, value, shape, diag = out
            self.diagnostics[i] = diag
            if not ref["screened"]:
                if count != ref["count"] or int(np.sum(roots >= y_q)) != ref["count"]:
                    return "count"
                if ref["shifted"] is not None:
                    want = np.pi * (ref["shifted"] - ref["count"]) / np.sqrt(2.0 * omega)
                    if abs(acc - want) > 1e-9 * max(1.0, abs(want)):
                        return "accumulation"
            weyl_value, weyl_proven = ref["weyl"]
            if (weyl.proven != weyl_proven
                    or abs(weyl.value - weyl_value) > 1e-10 * max(1.0, weyl_value)):
                return "weyl"
            if ref["det"] is not None:
                rec = omega * value.value * np.exp(value.log_scale)
                if abs(rec - ref["det"]) > 1e-8 * max(abs(rec), abs(ref["det"])):
                    return "dispersion"
            y_top = float(roots[0])
            if ref["top"] is not None and abs(omega * y_top - ref["top"][0]) > ref["top"][1]:
                return "top-root"
            nu_inf = omega * np.sqrt(y_top * y_top - float(m.slowness_sq[-1]))
            if abs(shape.decay_rate - nu_inf) > 1e-9 * nu_inf or not shape.is_l2:
                return "mode"
            return None
        return check

    def summary(self, results):
        secs = [r["seconds"] for r in results]
        ms = sorted(1e3 * s for s in secs)
        p95 = float(np.percentile(ms, 95))
        return {
            "work_per_s": (len(secs) / sum(secs), "1/s"),
            "op_p50_ms": (_median(ms), "ms"),
        }, {
            "query_per_s": (len(secs) / sum(secs), "1/s"),
            "query_p50_ms": (_median(ms), "ms"),
            "query_p95_ms": (p95, "ms"),
            "query_samples": (len(ms), "count"),
            "query_beyond_p95": (sum(x > p95 for x in ms), "count"),
            "query_screened": (self.screened, "count"),
            "mode_jump_over_1e-6": (
                sum(max(d.phi_jump, d.stress_jump) > 1e-6 for d in self.diagnostics.values()),
                "count"),
            "mode_ode_residual_over_1e-9": (
                sum(d.ode_residual > 1e-9 for d in self.diagnostics.values()), "count"),
        }


def _weyl(m, omega, y):
    """Weyl count (omega/pi) sum T_j |nu_j| over layers oscillatory at y, and its flag."""
    inv = m.slowness[:-1]
    osc = y < inv
    value = omega / np.pi * float(np.sum(m.thickness[osc] * np.sqrt(inv[osc] ** 2 - y * y)))
    c = np.sort(m.c)
    proven = m.n <= 2 or bool(c[0] < c[1] and y >= 1.0 / c[1])
    return value, proven


# ---------------------------------------------------------------------------
# invert: closed-form rules from CSV, and least-squares refinement

A_DATA_GRID = (1.0, 1200.0, 1.0)  # noisy medium-A dataset for the one-layer rule
B_DATA_GRID = (1.0, 1000.0, 1.0)  # traced B and swapped-B datasets for the two-layer rule
A_SPACING = 31.5  # medium A's cutoffs lie 31.574 rad/s apart
NOISE = 1e-3
RULE_PAIRS_PER_S = 2.0  # (n1, n2) operation pairs per second of --seconds
REFINE_S = 6.0  # seconds of --seconds per least-squares refine
LS_GRID = (20.0, 500.0, 25)  # sparse medium-A frequencies for the refine
LS_OFFSET = (0.045, 0.055)  # relative thickness offset of the refine's start


class Invert(Workload):
    name = "invert"

    def __init__(self, ld, seed, seconds, work):
        super().__init__(ld, seed, seconds, work)
        self.refines = max(1, round(seconds / REFINE_S))
        self.pairs = max(10, round(RULE_PAIRS_PER_S * seconds))

    def prepare(self):
        """Traces of B and swapped B, made once per checkout by the solver.

        These are inputs for the two-layer rule, not references: its output
        is checked against the true media.  They are cached because tracing
        to omega = 1000 takes longer than a run.
        """
        path = self.work.parent / "cache" / "invert-b-traces.npz"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            grid = _grid(*B_DATA_GRID)
            arrays = {}
            for key, m in (("B", MEDIUM_B), ("Bs", MEDIUM_BS)):
                bs = self.ld.trace_branches(self.ld.Medium(**m), grid)
                arrays[key] = np.array([(b.ell, w, w * y) for b in bs.branches
                                        for w, y in zip(b.omega, b.y)])
            np.savez(path, **arrays)
        with np.load(path) as data:
            self.b_rows = {k: data[k] for k in ("B", "Bs")}

    def generate(self):
        rng = np.random.default_rng(self.seed)
        grid = _grid(*A_DATA_GRID)
        y = oracle.single_layer_roots(MEDIUM_A, grid, int(grid[-1] / A_SPACING) + 2)
        node, rank = np.nonzero(~np.isnan(y))
        k = grid[node] * y[node, rank] * (1.0 + NOISE * rng.standard_normal(len(node)))
        self.work.mkdir(parents=True, exist_ok=True)
        # observed data carry no branch labels; the CLI round trip keeps them
        self.paths = {"A": self.work / "a-noisy.csv",
                      "A-labeled": self.work / "a-noisy-labeled.csv"}
        _write_dataset(self.paths["A"], None, grid[node], k)
        _write_dataset(self.paths["A-labeled"], rank + 1, grid[node], k)
        for key, rows in self.b_rows.items():
            self.paths[key] = self.work / f"{key.lower()}.csv"
            order = np.lexsort((rows[:, 0], rows[:, 1]))
            _write_dataset(self.paths[key], rows[order, 0].astype(int), *rows[order, 1:].T)

        lo, hi, count = LS_GRID
        step = (hi - lo) / (count - 1)
        w = np.linspace(lo, hi, count) + rng.uniform(-step / 3, step / 3, count)
        y = oracle.single_layer_roots(MEDIUM_A, w, int(hi / A_SPACING) + 2)
        node, rank = np.nonzero(~np.isnan(y))
        self.ls_data = self.ld.DispersionDataset(
            omega=w[node], k=w[node] * y[node, rank], ell=rank + 1)
        h = 100.0 * (1.0 + rng.uniform(*LS_OFFSET))
        self.ls_guess = self.ld.Medium(mu=MEDIUM_A["mu"], rho=MEDIUM_A["rho"], thickness=[h])
        self.b_order = ["B", "Bs"] * (self.pairs // 2) + ["B"] * (self.pairs % 2)
        rng.shuffle(self.b_order)
        self.ls_slots = set(rng.choice(self.pairs + 1, self.refines, replace=False).tolist())
        self.cli_slot = int(rng.integers(self.pairs))

    def ops(self):
        ops = []
        for i in range(self.pairs + 1):
            if i in self.ls_slots:
                ops.append(Op("ls", self._refine, self._check_refine))
            if i == self.cli_slot:
                out = self.work / "out-cli"
                argv = ["invert", "--data", str(self.paths["A-labeled"]), "--mode", "n1",
                        "--rho1", "1.0", "--out", str(out)]
                ops.append(Op("n1-cli", _cli(self.ld, argv), self._check_cli(out)))
            if i < self.pairs:
                key = self.b_order[i]
                ops.append(Op("n1", self._rule(self.paths["A"], 1), self._check_n1))
                ops.append(Op("n2", self._rule(self.paths[key], 2), self._check_n2(key),
                              tags={"medium": key}))
        return ops

    def _rule(self, path, layers):
        ld = self.ld

        def run():
            branchset = ld.branchset_from_dataset(ld.io.read_dataset_csv(path))
            if layers == 1:
                report = ld.invert_single_layer(branchset, rho1=1.0)
            else:
                report = ld.invert_double_layer(branchset)
            report.render()
            return report
        return run

    @staticmethod
    def _check_n1(rep):
        return _n1_error({p.name: p.value for p in rep.parameters})

    @staticmethod
    def _check_cli(out):
        def check(result):
            if result[0] != 0:
                return _exit_reason(*result)
            rows = [ln.split() for ln in (out / "report.txt").read_text().splitlines()[1:]]
            return _n1_error({r[0]: float(r[1]) for r in rows if len(r) > 2})
        return check

    @staticmethod
    def _check_n2(key):
        c1, c2 = (1000.0, 1818.0) if key == "B" else (1818.0, 1000.0)
        order = "slow layer on top" if key == "B" else "fast layer on top"

        def check(rep):
            if order not in rep["c1"].rule:
                return "layer order"
            v = [_rel(rep["c1"].value, c1), _rel(rep["c2"].value, c2),
                 _rel(rep["c3"].value, 10000.0)]
            t = [_rel(rep["T1"].value, 100.0), _rel(rep["T2"].value, 100.0)]
            return None if max(v) < 0.01 and max(t) < 0.10 else "n2 outside criterion-8 tolerances"
        return check

    def _refine(self):
        mask = self.ld.parameter_mask(self.ls_guess, thickness=True)
        return self.ld.least_squares_refine(self.ls_guess, self.ls_data, mask)

    @staticmethod
    def _check_refine(out):
        refined, _ = out
        err = _rel(float(refined.thickness[0]), 100.0)
        return None if err < 1e-3 else f"refined thickness off by {err:.3g}"

    def summary(self, results):
        by = {k: [r["seconds"] for r in results if r["kind"] == k] for k in ("n1", "n2", "ls")}
        pair_ms = [1e3 * (a + b) for a, b in zip(by["n1"], by["n2"])]
        return {
            "work_per_s": (len(by["ls"]) / sum(by["ls"]), "1/s"),
            "op_p50_ms": (_median(pair_ms), "ms"),
        }, {
            "invert_n1_ms": (1e3 * _median(by["n1"]), "ms"),
            "invert_n2_ms": (1e3 * _median(by["n2"]), "ms"),
            "ls_refine_s": (_median(by["ls"]), "s"),
        }


def _n1_error(values):
    """Criterion-7 check of a one-layer recovery from noisy data (5%)."""
    errs = [_rel(values["c1"], 1000.0), _rel(values["c2"], 10000.0),
            _rel(values["H"], 100.0), abs(values["rho2"] - 1.0)]
    return None if max(errs) < 0.05 else f"n1 error {max(errs):.3g} >= 0.05"


def _write_dataset(path, ell, omega, k):
    """Dataset CSV in the library's format: ``omega, k[, ell]``, 17 digits."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        rows = [(format(w, ".17g"), format(kk, ".17g")) for w, kk in zip(omega, k)]
        if ell is None:
            out.writerow(("omega", "k"))
            out.writerows(rows)
        else:
            out.writerow(("omega", "k", "ell"))
            out.writerows(r + (int(e),) for r, e in zip(rows, ell))


WORKLOADS = {w.name: w for w in (TraceFixed, QueryRandom, Invert)}
