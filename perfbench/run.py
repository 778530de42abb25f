"""lovedisp benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload trace-fixed --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Operations run as a closed loop with one caller.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the operations once untraced and once
with spans around every public lovedisp function, and reports the
per-module metrics and the tracing overhead.  The metric names are those in
``BENCHMARK.json``; ``perfbench/DESIGN.md`` gives what each one measures.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import lovedisp; print(time.perf_counter() - t)"
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_seconds():
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def _machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        model = names[0] if names else model
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _run_op(op, tracer=None):
    """Time one operation, with spans if a tracer is given, then check it."""
    if tracer:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = op.run()
        raised = None
    except Exception as exc:  # a failed operation, counted and reported
        raised = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer:
        tracer.active = False
    return {"kind": op.kind, "t": (t0, t1), "work": op.work,
            "reason": raised or _check(op, out), **op.tags}


def _scale(sampler, *runs):
    """Replace each result's interval by its time at the reference speed."""
    time.sleep(speed.WINDOW_S)  # speed samples after the last operation
    for results in runs:
        for r in results:
            t0, t1 = r.pop("t")
            r["wall"] = t1 - t0
            r["seconds"] = sampler.scaled(t0, t1)
    return runs


def _measure(ops, sampler, tracer=None):
    """Run every operation once, in order.

    With a tracer, run each one twice, untraced and traced, alternating
    which goes first so that warm-up favours neither; returns both lists.
    """
    if tracer is None:
        return _scale(sampler, [_run_op(op) for op in ops])[0]
    untraced, traced = [], []
    for i, op in enumerate(ops):
        pair = [(untraced, None), (traced, tracer)]
        for results, t in pair if i % 2 == 0 else pair[::-1]:
            results.append(_run_op(op, t))
    return _scale(sampler, untraced, traced)


def _check(op, out):
    """The reason an operation's output is wrong, or None."""
    try:
        return op.check(out)
    except Exception as exc:  # malformed output, e.g. a CSV the CLI did not write
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _failures(results):
    """Failed operations by kind and reason, and per layer count where tagged."""
    by_reason, by_n = {}, {}
    for r in results:
        if "n" in r:
            tot = by_n.setdefault(f"n={r['n']}", [0, 0])
            tot[1] += 1
            tot[0] += r["reason"] is not None
        if r["reason"] is not None:
            key = f"{r['kind']}{'/' + r['medium'] if 'medium' in r else ''}: {r['reason'][:80]}"
            by_reason[key] = by_reason.get(key, 0) + 1
    return by_reason, {k: f"{v[0]}/{v[1]}" for k, v in sorted(by_n.items())}


def _emit(results, metrics, names):
    missing = [n for n in names if n not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    failed = sum(r["reason"] is not None for r in results)
    # every operation was checked; those whose check failed are in "failed"
    print(json.dumps({
        "correct": True,
        "attempted": len(results),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "lovedisp" / "__init__.py").is_file():
        print(f"error: no lovedisp package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import lovedisp
    if Path(lovedisp.__file__).resolve().parent != SRC / "lovedisp":
        print(f"error: imported lovedisp from {lovedisp.__file__}", file=sys.stderr)
        return 2
    import lovedisp.cli  # noqa: F401  (the CLI module is not imported by the package)
    import lovedisp.io  # noqa: F401

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = HERE / ".work" / args.workload
    wl = workloads.WORKLOADS[args.workload](lovedisp, args.seed, args.seconds, work)

    with speed.Sampler() as sampler:
        return _run(args, spec, lovedisp, wl, work, sampler)


def _run(args, spec, lovedisp, wl, work, sampler):
    # set-up: import plus input generation, repeated; medians at reference speed
    t0 = time.perf_counter()
    wl.prepare()
    prepare_s = time.perf_counter() - t0
    import_s, gen_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        seconds = _import_seconds()
        import_s.append(seconds * sampler.factor(t0, time.perf_counter()))
        t0 = time.perf_counter()
        wl.generate()
        gen_s.append(sampler.scaled(t0, time.perf_counter()))
    setup_s = statistics.median(import_s) + statistics.median(gen_s)

    t0 = time.perf_counter()
    wl.references()
    reference_s = time.perf_counter() - t0

    machine = _machine()
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        span_names = tracer.install(lovedisp)
        results, traced = _measure(wl.ops(), sampler, tracer)
    else:
        results = _measure(wl.ops(), sampler)
    e2e, named = wl.summary(results)
    e2e["setup_s"] = (setup_s, "s")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    by_reason, by_n = _failures(results)
    failed = sum(r["reason"] is not None for r in results)
    info = {
        "workload": args.workload, "seed": args.seed, "machine": machine,
        "failed_frac": failed / len(results), "failures": by_reason, "failed_by_n": by_n,
        "named": {k: f"{v[0]:.6g} {v[1]}" for k, v in named.items()},
        "setup": {"import_s": import_s, "generate_s": gen_s, "prepare_s": prepare_s,
                  "reference_s": reference_s},
        "slowdown": sampler.slowdown(),
        "wall_s": sum(r["wall"] for r in results),
    }

    if args.trace:
        metrics = _per_layer(wl, tracer, span_names, sampler, results, traced, info, work)
        results = traced
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics, names = e2e, [m["name"] for m in spec["end_to_end"]]

    print("# " + json.dumps(info))
    _emit(results, metrics, names)
    return 0


def _per_layer(wl, tracer, names, sampler, untraced, traced, info, work):
    """Per-module metrics from the spans, and the tracing overhead."""
    base = sum(r["seconds"] for r in untraced)
    layer = tracer.per_function(names, sampler.factor)
    roots = [s[5] for s in tracer.spans if s[0] == "branch.roots_at_omega"]
    refines = sum(1 for s in tracer.spans if s[0] == "inversion.least_squares_refine")
    ls_roots = len(tracer.under("branch.roots_at_omega", "inversion.least_squares_refine"))
    diagnostics = wl.diagnostics.values()
    layer["branch.roots_per_call"] = (statistics.fmean(roots) if roots else 0.0, "count")
    layer["inversion.ls_roots_calls"] = (ls_roots / refines if refines else 0.0, "count")
    layer["modes.ode_residual_max"] = (
        max((d.ode_residual for d in diagnostics), default=0.0), "ratio")
    layer["modes.jump_max"] = (
        max((max(d.phi_jump, d.stress_jump) for d in diagnostics), default=0.0), "ratio")
    layer["tracing.overhead_pct"] = (100.0 * (sum(r["seconds"] for r in traced) / base - 1.0), "%")
    layer["tracing.spans"] = (len(tracer.spans), "count")
    info["untraced_s"] = base
    info["per_module"] = {k: v[0] for k, v in layer.items() if v[0]}
    work.mkdir(parents=True, exist_ok=True)
    (work / f"spans-{info['seed']}.json").write_text(json.dumps(tracer.dump()))
    return layer


if __name__ == "__main__":
    sys.exit(main())
