#!/usr/bin/env python3
"""Benchmark: seeded training workloads timed end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload rect-hinge --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 42 --trace 0

A run sets up its workload, then repeats it in a closed loop, one repeat
at a time in this process, until ``--seconds`` is used up, with at least
three repeats: a warm-up and two measured ones. With ``--trace 0`` one
set-up is also timed in a fresh process before each repeat. A repeat
trains with ``trainer.train``, round-trips the model through
``network.serialize``/``deserialize`` and scores the held-out rows with
``network.predict`` on the reloaded model, then runs the workload's
correctness checks. ``--trace 0`` reports the end-to-end metrics, with
``train_s`` scaled by the speed of a fixed probe run during each train
(``speed_probes``).
``--trace 1`` alternates traced and untraced repeats, starting with a
traced warm-up, and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
check failed. ``--out DIR`` also writes the result set, with the machine
facts and the spans of a traced run, to a JSON file that
``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MANIFEST = HERE.parent / "BENCHMARK.json"  # metric names and units
WORKLOADS = ("rect-hinge", "width-squared", "exact-interp")

MIN_REPEATS = 3      # a warm-up and two measured repeats
SETUP_PER_REPEAT = 1  # fresh processes, each importing and generating once
SETUP_SAMPLES = 9     # at least this many in a run
IO_REPS = 4          # serialize + deserialize pairs per repeat
PREDICT_REPS = 8     # predict calls per repeat
CHILD_TIMEOUT_S = 600
BLAS_THREADS = 1
PROBE_PERIOD_S = 0.02  # one speed probe per 20 ms of an untraced train
PROBE_LOOPS = 3000     # pure-Python multiply-adds in one probe
PROBE_MATMULS = 4      # and products of a PROBE_N x PROBE_N matrix
PROBE_N = 96
PROBE_REF_S = 400e-6   # probe time of the speed train_s is scaled to


def pin_blas_threads() -> int:
    """Pin BLAS to BLAS_THREADS threads; must run before numpy loads.

    One thread: on a shared machine a multi-threaded BLAS call waits for
    its slowest thread, so another process on any core can stall it many
    times over, while one thread only slows with its own core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def _blas_runtime() -> tuple[int | None, str | None]:
    # thread count and build string as the loaded OpenBLAS reports them
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def machine_facts(pinned: int) -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = _blas_runtime()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config,
        "blas_threads_pinned": pinned,
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: time the first import plus input generation."""
    t0 = time.perf_counter()
    import workloads

    workloads.make_inputs(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_samples(workload: str, seed: int, n: int) -> list[float]:
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


@contextmanager
def speed_probes():
    """Time a fixed probe every PROBE_PERIOD_S of wall time.

    The probe does the two kinds of work the trains spend their time in,
    interpreted Python and BLAS. It runs in this thread, from a timer
    signal, between two bytecodes of whatever runs meanwhile, so its
    durations sample the machine's speed over the same seconds as the
    code around it.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((PROBE_N, PROBE_N))
    out = np.empty_like(a)
    durations: list[float] = []

    def probe(signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i
        for _ in range(PROBE_MATMULS):
            np.matmul(a, a, out=out)
        durations.append(time.perf_counter() - t0)

    old = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        yield durations
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def one_repeat(name: str, inputs, probe: bool) -> dict:
    """Train, round-trip and score once; ``fails`` lists failed checks.

    With ``probe`` the train is timed under speed probes, and ``train_s``
    is its wall time without the probes' own, scaled to the speed at which
    a probe takes PROBE_REF_S; without, ``train_s`` is the wall time.
    """
    from basis_learner import network, trainer

    import workloads

    with speed_probes() if probe else nullcontext([]) as probes:
        t0 = time.perf_counter()
        net, trace = trainer.train(inputs.fit, inputs.valid, inputs.config)
        train_wall_s = time.perf_counter() - t0
    if probes:
        probe_s = statistics.median(probes)
        train_s = (train_wall_s - sum(probes)) * PROBE_REF_S / probe_s
    else:
        probe_s, train_s = None, train_wall_s

    fails = []
    io_s = []
    blob = None
    for _ in range(IO_REPS):
        t = time.perf_counter()
        data = network.serialize(net)
        loaded = network.deserialize(data)
        io_s.append(time.perf_counter() - t)
        if blob is None:
            blob = data
        elif data != blob:
            fails.append("serialize gave different bytes for one model")

    expected = network.predict(net, inputs.test_X)
    predict_s = []
    for _ in range(PREDICT_REPS):
        t = time.perf_counter()
        scores = network.predict(loaded, inputs.test_X)
        predict_s.append(time.perf_counter() - t)
    if scores.shape != expected.shape or scores.tobytes() != expected.tobytes():
        fails.append("reloaded model's predictions differ from the trained model's")

    test_err = workloads.held_out_error(inputs, scores)
    fails += workloads.workload_check(name, inputs, net, trace, test_err)
    return {
        "train_s": train_s, "train_wall_s": train_wall_s, "probe_s": probe_s,
        "io_s": io_s, "predict_s": predict_s,
        "blob": blob, "model_bytes": len(blob), "test_err": test_err,
        "depths": len(trace.records), "fails": fails,
    }


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def timing_line(name: str, unit: str, samples: list[float], scale=None) -> str:
    """Median, tail percentile and sample count of one timing, as printed."""
    conv = scale or (lambda v: v)
    line = f"{name:<20} median={_fmt(conv(statistics.median(samples)))} {unit}"
    t = tail(samples)
    if t is None:
        line += f"  n={len(samples)} (no percentile has 10 samples beyond it)"
    else:
        line += f"  p{t[0]:.0f}={_fmt(conv(t[1]))} {unit}  n={len(samples)}"
    return line


def run_workload(args) -> dict:
    """Repeat the workload until ``args.seconds`` are used up.

    The first repeat is a warm-up: the first train in a process is slower
    than later ones, so its checks count but its timings do not. With
    tracing, repeats alternate traced (odd) and untraced (even), so the
    tracing overhead compares warm repeats. Without it, set-up samples are
    taken between the repeats, so that their median covers the same span
    of the machine's load as the repeats do.
    """
    import workloads

    start = time.perf_counter()
    setup: list[float] = []
    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.trace:
        import tracing

    reps: list[dict] = []
    ref_blob = None  # model bytes of the first repeat; later ones must match
    attempted = failed = 0
    while True:
        attempted += 1
        use_trace = args.trace == 1 and attempted % 2 == 1
        t = time.perf_counter()
        if not args.trace:
            setup += setup_samples(args.workload, args.seed, SETUP_PER_REPEAT)
        try:
            if use_trace:
                with tracing.traced(tracing.Tracer()) as tr:
                    rep = one_repeat(args.workload, inputs, probe=False)
                rep["layers"] = tracing.layer_metrics(tr)
                rep["layers"]["trainer.depths"] = rep["depths"]
                rep["layers"]["network.model_bytes"] = rep["model_bytes"]
                rep["spans"] = tr.spans
                rep["fails"] += _span_checks(tr.spans, rep["layers"], rep["train_s"])
            else:
                rep = one_repeat(args.workload, inputs, probe=not args.trace)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rep = {"fails": ["repeat raised"]}
        rep.update(traced=use_trace, warm=attempted > 1,
                   wall_s=time.perf_counter() - t)
        blob = rep.pop("blob", None)
        if ref_blob is None:
            ref_blob = blob
        elif blob is not None and blob != ref_blob:
            rep["fails"].append("model bytes differ between repeats of one seed")
        if "layers" in rep:
            rep["counts"] = {k: rep["layers"][k] for k in COUNTED}
            ref = next(r for r in reps + [rep] if "counts" in r)
            if rep["counts"] != ref["counts"]:
                rep["fails"].append(f"counts differ between repeats: "
                                    f"{rep['counts']} vs {ref['counts']}")
        if rep["fails"]:
            failed += 1
            for f in rep["fails"]:
                print(f"check failed (repeat {attempted}): {f}", file=sys.stderr)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        per_repeat = statistics.median(r["wall_s"] for r in reps)
        if attempted >= MIN_REPEATS and elapsed + per_repeat > args.seconds:
            break

    if not args.trace and len(setup) < SETUP_SAMPLES:
        setup += setup_samples(args.workload, args.seed, SETUP_SAMPLES - len(setup))
    ok = [r for r in reps if not r["fails"]]
    measured = [r for r in ok if r["warm"]]
    result = {"attempted": attempted, "failed": failed, "reps": reps,
              "setup_s": setup, "test_err": ok[0]["test_err"] if ok else None}
    if args.trace:
        result["metrics"] = _layer_result(measured)
    else:
        result["metrics"], result["lines"] = _e2e_result(inputs, measured, setup)
    result["spans"] = [[[s.name, s.start, s.end, s.parent] for s in r["spans"]]
                       for r in reps if "spans" in r]
    return result


# counts that must repeat exactly across the traced repeats of one seed
COUNTED = ("output.fit_calls", "output.sgd_steps", "basis.candidates",
           "basis.admitted", "trainer.depths", "network.model_bytes",
           "linalg.thin_svd_calls", "linalg.residual_calls")


def _span_checks(spans: list, layers: dict, train_s: float) -> list[str]:
    """Failures of the span invariants of one traced repeat."""
    import tracing

    fails = []
    roots = sum(s.name == "trainer.train" for s in spans)
    if roots != 1:
        fails.append(f"{roots} trainer.train spans in one repeat, not 1")
    worst = min(tracing.self_times(spans))
    if worst < -1e-9:
        fails.append(f"a span's children outlast it by {-worst} s")
    if layers["trainer.train_s"] > train_s:
        fails.append(f"traced train span {layers['trainer.train_s']} s is longer "
                     f"than the train call around it, {train_s} s")
    # an identity while the spans nest; it fails when a span under train
    # belongs to none of these layers, so its time would go unattributed
    parts = sum(layers[f"{k}.self_s"] for k in ("trainer", "output", "basis", "linalg"))
    if abs(parts - layers["trainer.train_s"]) > 1e-9 * max(1.0, layers["trainer.train_s"]):
        fails.append(f"self times sum to {parts}, not the traced train_s "
                     f"{layers['trainer.train_s']}")
    return fails


def _layer_result(measured: list[dict]) -> dict:
    traced = [r for r in measured if r["traced"]]
    untraced = [r for r in measured if not r["traced"]]
    if not traced or not untraced:
        return {}
    metrics = {}
    for key in traced[0]["layers"]:
        vals = [r["layers"][key] for r in traced]
        metrics[key] = statistics.median(vals) if key.endswith("_s") else vals[0]
    metrics["tracing_overhead_s"] = (metrics["trainer.train_s"]
                                     - statistics.median(r["train_s"] for r in untraced))
    return metrics


def _e2e_result(inputs, ok: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    if not ok:
        return {}, []
    rows = inputs.test_X.shape[0]
    train_s = [r["train_s"] for r in ok]
    io_s = [x for r in ok for x in r["io_s"]]
    predict_s = [x for r in ok for x in r["predict_s"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "train_s": statistics.median(train_s),
        "setup_s": statistics.median(setup),
        "predict_rows_per_s": rows / statistics.median(predict_s),
        "model_io_s": statistics.median(io_s),
        "peak_rss_mb": peak_rss_mb,
    }
    # the slowest predict calls give the lowest rates, so the tail is a low rate
    lines = [
        timing_line("train_s", "s", train_s),
        timing_line("train_wall_s", "s", [r["train_wall_s"] for r in ok]),
        timing_line("speed_probe_s", "s", [r["probe_s"] for r in ok]),
        timing_line("setup_s", "s", setup),
        timing_line("predict_rows_per_s", "1/s", predict_s, lambda v: rows / v),
        timing_line("model_io_s", "s", io_s),
        f"{'peak_rss_mb':<20} {_fmt(peak_rss_mb)} MB",
    ]
    return metrics, lines


def report(args, facts: dict, res: dict) -> dict:
    """Print every metric by name and unit; the result line comes last."""
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(MANIFEST.read_text())[kind]}
    if res["metrics"] and not units.keys() <= res["metrics"].keys():
        raise RuntimeError(f"measured metrics {sorted(res['metrics'])} lack some "
                           f"{kind} metrics of {MANIFEST.name}")
    print(f"facts {json.dumps(facts, sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repeats={res['attempted']}")
    print("train_s by repeat: " + " ".join(
        f"{r['train_s']:.3f}{'' if r['warm'] else '(warm-up)'}"
        f"{'(traced)' if r['traced'] else ''}"
        for r in res["reps"] if "train_s" in r))
    if args.trace and res["metrics"]:
        for k in units:
            print(f"{k:<26} {_fmt(res['metrics'][k])} {units[k]}")
    for line in res.get("lines", []):
        print(line)
    if res["test_err"] is None:
        print(f"{'test_err':<20} not reported: workload checks interpolation")
    else:
        print(f"{'test_err':<20} {_fmt(res['test_err'])} "
              f"{'rate' if args.workload == 'rect-hinge' else 'mse'}")
    print(f"{'fail_rate':<20} {res['failed']}/{res['attempted']} repeats")
    line = {
        "correct": res["failed"] == 0 and bool(res["metrics"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": units[k]}
                    for k in units if res["metrics"]},
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        doc = {"facts": facts, "workload": args.workload, "seed": args.seed,
               "trace": args.trace, "seconds": args.seconds,
               "test_err": res["test_err"], "result": line,
               "setup_s": res["setup_s"],
               "samples": [{k: r[k] for k in ("warm", "traced", "train_s",
                                              "train_wall_s", "probe_s", "io_s",
                                              "predict_s") if k in r}
                           for r in res["reps"]],
               "spans": res["spans"]}
        path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(doc) + "\n")
    print(json.dumps(line))
    return line


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    summary = []
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            last = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            last = {}  # the child failed before printing a result
        ok = proc.returncode == 0 and last.get("correct") is True
        status = status or (0 if ok else 1)
        summary.append(f"{w}: {'ok' if ok else 'FAILED'} "
                       f"({last.get('failed', '?')}/{last.get('attempted', '?')} failed)")
    print("summary: " + "; ".join(summary))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for the result-set JSON file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not (SRC / "basis_learner" / "__init__.py").is_file():
        print(f"error: no basis_learner package under {SRC}", file=sys.stderr)
        return 2
    pinned = pin_blas_threads()
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)

    facts = machine_facts(pinned)
    res = run_workload(args)
    line = report(args, facts, res)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
