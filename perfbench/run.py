"""qbipoly benchmark: the CLI as its users run it.

    python3 perfbench/run.py --workload orthogonality|rodrigues|families \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  One process is one closed-loop client.  It imports
``qbipoly.cli`` once, then sends the workload's seeded request list one
request at a time.  Each request runs as ``qbipoly.cli.main(argv)`` in a
child forked from that process, which is what a one-command CLI user gets:
the program imported, nothing left over from another request.  The list is
sent PASSES times, each pass pinned to another CPU.  Outputs of every pass
are checked after the timing stops.  ``setup_s`` is timed in fresh
interpreters.  With ``--trace 1`` one pass runs with layer spans installed
in each child and the per-layer metrics are reported instead.

Times are reported in reference seconds.  The host's cores are shared with
other tenants, and their load slows this process by up to 2x, in bursts
and in phases that outlast a run.  So a fixed pure-Python kernel is timed
in the request's process right before it, every SAMPLE_INTERVAL_S while it
runs (from a timer signal) and right after it; the request's latency, less
the kernel's own time, is scaled by REFERENCE_S over the kernel's mean
time.  A request's latency is the median of its passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, SHARES, Tracer  # noqa: E402

#: times each request is sent in an untraced run
PASSES = 2
#: fresh-interpreter imports in one run; setup_s is their median
SETUP_SAMPLES = 15
#: reference_seconds() on an uncontended core of the recording host
REFERENCE_S = 0.0030
#: period of the reference samples taken while a request runs
SAMPLE_INTERVAL_S = 0.2
SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import qbipoly.cli\n"
    "qbipoly.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)
OUT_ROOT = os.path.join(HERE, "out")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=14.0,
                    help="recorded cost, in reference seconds, of the passes to send")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_cli(root: str):
    """Import qbipoly.cli from the checkout's src/ and build its parser."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qbipoly", "cli.py")):
        raise SystemExit(f"error: no qbipoly source under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import qbipoly.cli as cli

    cli.build_parser()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported qbipoly from {cli.__file__}, not from {src}")
    return cli


def reference_seconds() -> float:
    """Time of a fixed kernel of the two kinds of arithmetic the program
    does: exact rationals with growing integers and 128-bit mpmath floats.
    (Dict and list churn was tried too; its slowdowns did not follow the
    program's.)  It calls nothing of qbipoly, so a change to the program
    cannot move it."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for k in range(1, 200):
        s += Fraction(k, k * k + 1)
    with mpmath.workprec(128):
        x = mpmath.mpf(1)
        for k in range(1, 400):
            x = x * k / (k + 1) + 1
    return time.perf_counter() - t0


def scaled(seconds: float, samples: list) -> float:
    """`seconds` in reference seconds, given reference samples taken around
    and during them."""
    return seconds * REFERENCE_S / statistics.fmean(samples)


class SpeedSampler:
    """Times reference_seconds() every SAMPLE_INTERVAL_S from SIGALRM while
    the block runs.  The handler runs between bytecodes of the main thread,
    on the same CPU as the work it interrupts."""

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        self.samples.append(reference_seconds())

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False


def cpu_list() -> list:
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def pinned(cpu: int):
    """Pin this process (and the children it starts) to one CPU."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def fresh_import_seconds(root: str) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=root,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(root: str) -> float:
    """Median over SETUP_SAMPLES fresh interpreters of importing qbipoly.cli
    and building its parser, in reference seconds."""
    cpus = cpu_list()
    samples = []
    for i in range(SETUP_SAMPLES):
        with pinned(cpus[i % len(cpus)]):
            before = reference_seconds()
            seconds = fresh_import_seconds(root)
            samples.append(scaled(seconds, [before, reference_seconds()]))
    return statistics.median(samples)


def run_request(cli, argv: list, tracer: Tracer | None = None) -> dict:
    """Run one request in a forked child; returns its outcome.

    The parent has no threads, so forking it is safe.  The child sends its
    outcome back through a pipe and leaves with os._exit, so nothing of the
    parent (atexit handlers, buffered output) runs twice."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            out = _child(cli, argv, tracer)
            data = pickle.dumps(out)
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"rc": None, "seconds": 0.0, "ref_s": 0.0, "stdout": "", "stderr": "",
                "maxrss_kb": 0, "trace": None,
                "error": f"request process ended with status {status} and no result"}
    return pickle.loads(data)  # written by the child above


def _child(cli, argv: list, tracer: Tracer | None) -> dict:
    """Run the request; traced requests take no reference samples, so that
    span times hold only the program's work."""
    if tracer is not None:
        # the forked copy of `tracer` holds earlier requests' spans: record afresh
        tracer = Tracer(t0=tracer.t0, request=tracer.request)
        tracer.install()
    before = reference_seconds()
    sampler = SpeedSampler()
    buf, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.ExitStack() as stack:
            if tracer is None:
                stack.enter_context(sampler)
            stack.enter_context(contextlib.redirect_stdout(buf))
            stack.enter_context(contextlib.redirect_stderr(err))
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a request that raises is a failed request, not a failed run
        rc = None
        error = traceback.format_exc(limit=-3).strip().splitlines()[-1]
    seconds = time.perf_counter() - t0 - sum(sampler.samples)
    after = reference_seconds()
    if tracer is not None:
        tracer.uninstall()
    return {"rc": rc, "seconds": seconds,
            "ref_s": scaled(seconds, [before, *sampler.samples, after]),
            "stdout": buf.getvalue(), "stderr": err.getvalue(), "error": error,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.export() if tracer is not None else None}


def send(cli, requests, out_dir: str, passes: int = PASSES, tracer: Tracer | None = None) -> list:
    """Send the request list `passes` times, pass p pinned to the p-th CPU in
    turn; returns one record per request sent.  With a tracer, each child
    records spans and the tracer absorbs them."""
    cpus = cpu_list()
    records = []
    for p in range(passes):
        with pinned(cpus[p % len(cpus)]):
            for req in requests:
                argv = list(req.argv)
                path = None
                if req.sink == "file":
                    path = os.path.join(out_dir, f"r{req.slot:03d}-p{p}.{req.fmt}")
                    argv += ["--out", path]
                if tracer is not None:
                    tracer.request = req.slot
                rec = run_request(cli, argv, tracer)
                if tracer is not None and rec["trace"] is not None:
                    tracer.absorb(rec.pop("trace"))
                rec.update({"request": req, "pass": p, "path": path})
                records.append(rec)
    return records


def judge(records, digests: dict):
    """Set each record's output text and problem (None when correct)."""
    for rec in records:
        rec["text"], rec["problem"] = rec["stdout"], None
        if rec["error"] is not None:
            rec["problem"] = f"raised {rec['error']}"
            continue
        if rec["path"] is not None and rec["rc"] == 0:
            try:
                with open(rec["path"], encoding="utf-8") as fh:
                    rec["text"] = fh.read()
            except OSError as exc:
                rec["problem"] = f"output file not readable: {exc}"
                continue
        rec["problem"] = checks.check_output(rec["request"], rec["rc"], rec["text"], digests)
        if rec["problem"] and rec["stderr"].strip():
            rec["problem"] += f" ({rec['stderr'].strip().splitlines()[-1]})"


def latencies(records, field: str = "ref_s") -> list:
    """Each request's median `field` over its passes, in request order."""
    by_slot = {}
    for r in records:
        by_slot.setdefault(r["request"].slot, []).append(r[field])
    return [statistics.median(by_slot[s]) for s in sorted(by_slot)]


def end_to_end_metrics(records, setup: float) -> dict:
    seconds = latencies(records)
    return {
        "wall_s": (sum(seconds), "s"),
        "req_p50_s": (statistics.median(seconds), "s"),
        "req_max_s": (max(seconds), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in records) / 1024.0, "MB"),
    }


#: (span, fields) reported by the traced run; see BENCHMARK.json and NOTES.md
PER_LAYER_FIELDS = (
    ("bipoly.eval", ("calls", "self_s")),
    ("bipoly.mul", ("calls", "self_s")),
    ("bipoly.add", ("calls", "self_s")),
    ("linalg.interpolate_2d", ("calls", "self_s")),
    ("linalg.solve_exact", ("calls", "self_s")),
    ("linalg.matmul", ("calls", "self_s")),
    ("qcalc.dq_nm_table", ("calls", "self_s")),
    ("qcalc.qpochhammer_inf", ("calls", "self_s")),
    ("qcalc.qnum", ("calls", "self_s")),
    ("qcalc.qpochhammer", ("calls", "self_s")),
    ("qcalc.dq", ("calls", "self_s")),
    ("qcalc.phi_bivariate", ("calls", "self_s")),
    ("rodrigues.rodrigues_poly", ("calls", "self_s")),
    ("bigqjacobi.MomentTable", ("calls", "build_s", "self_s")),
    ("bigqjacobi.integrate", ("calls", "self_s")),
    ("bigqjacobi.monic_hypergeometric", ("calls", "self_s")),
    ("bigqjacobi.nonmonic_poly", ("calls", "self_s")),
    ("bigqjacobi.limit_check", ("self_s",)),
    ("suites.orthogonality", ("self_s",)),
    ("suites.consistency", ("self_s",)),
    ("suites.recurrence", ("self_s",)),
    ("suites.limits", ("self_s",)),
    ("monic.operator_blocks", ("calls", "self_s")),
    ("monic.ghat_oracle", ("calls", "self_s")),
    ("monic.ttr_matrices", ("calls", "self_s")),
    ("monic.generate_monic_rf", ("self_s",)),
    ("equation.apply_operator", ("calls", "self_s")),
    ("equation.admissibility", ("calls", "self_s")),
    ("equation.derived_coeffs", ("calls", "self_s")),
    ("pearson.build_pearson", ("calls", "self_s")),
    ("pearson.verify_pearson_identities", ("self_s",)),
    ("pearson.weight_value", ("calls",)),
    ("pearson.base_weight", ("calls",)),
    ("io.poly_to_json", ("calls", "self_s")),
    ("io.write_atomic", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)

#: what the traced run checks each workload stresses (reported, not gated:
#: an optimisation of the stressed layer is expected to lower these shares)
CLAIMS = {
    "orthogonality": (("share.moment_engine", ">=", 0.70),),
    "rodrigues": (("share.rodrigues_core", ">=", 0.70), ("share.float_lane", "<=", 0.01)),
    "families": (("share.rodrigues_route", "<=", 0.35), ("share.float_lane", "<=", 0.01)),
}


def per_layer_metrics(tracer: Tracer, records, wall: float) -> dict:
    m = {}
    for span, fields in PER_LAYER_FIELDS:
        calls, total, self_s = tracer.stat(span)
        for field in fields:
            if field == "calls":
                m[f"{span}.calls"] = (calls, "count")
            elif field == "self_s":
                m[f"{span}.self_s"] = (self_s, "s")
            elif field == "build_s":
                m[f"{span}.build_s"] = (total, "s")
    c = tracer.counters
    for name in ("bipoly.eval.terms", "bipoly.mul.term_pairs", "linalg.interpolate_2d.nodes",
                 "linalg.solve_exact.max_n"):
        m[name] = (c[name], "count")
    rod_calls = tracer.stat("rodrigues.rodrigues_poly")[0]
    m["rodrigues.bases_per_call"] = (c["rodrigues.base_weight_calls"] / rod_calls if rod_calls else 0.0, "1")
    wv_calls = tracer.stat("pearson.weight_value")[0]
    m["pearson.weight_value.cache_hit_ratio"] = (
        c["pearson.weight_value.cache_hits"] / wv_calls if wv_calls else 0.0, "1")
    m["io.output_bytes"] = (sum(len(r["text"].encode()) for r in records), "B")
    m["io.coeff_bits_max"] = (max(_bits(r) for r in records), "bit")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (
            sum(tracer.stat(n)[2] for n in tracer.names if n.split(".")[0] == layer), "s")
    for name, group in SHARES.items():
        m[name] = (tracer.covered(group) / wall, "1")
    m["trace.wall_s"] = (wall, "s")
    m["trace.spans"] = (len(tracer.span_name), "count")
    return m


def _bits(rec) -> int:
    if rec["problem"] is not None:
        return 0
    return checks.coeff_bits_max(rec["request"], rec["text"])


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    cli = import_cli(root)
    # the traced run sends the same list once
    requests = workloads.build_requests(args.workload, args.seed, args.seconds / PASSES)
    passes = 1 if args.trace else PASSES
    digests = checks.load_digests()
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)

    tracer = Tracer() if args.trace else None
    try:
        records = send(cli, requests, out_dir, passes, tracer)
        judge(records, digests)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  requests {len(requests)}  "
          f"passes {passes}  trace {args.trace}  python {sys.version.split()[0]}")
    for r in records:
        status = "ok" if r["problem"] is None else f"FAILED: {r['problem']}"
        print(f"  slot {r['request'].slot:3d} pass {r['pass']} {r['seconds']:9.3f} s "
              f"{r['ref_s']:9.3f} ref s  "
              f"{r['request'].key}  {status}")

    for p in range(passes):
        print(f"  pass {p}: {sum(r['seconds'] for r in records if r['pass'] == p):.3f} s, "
              f"{sum(r['ref_s'] for r in records if r['pass'] == p):.3f} ref s")
    if args.trace:
        metrics = per_layer_metrics(tracer, records, sum(latencies(records, "seconds")))
        spans_path = os.path.join(OUT_ROOT, f"spans-{args.workload}.tsv.gz")  # latest run only
        tracer.write_spans(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, root)}")
        for name, op, bound in CLAIMS[args.workload]:
            value = metrics[name][0]
            held = value >= bound if op == ">=" else value <= bound
            print(f"claim {name} {op} {bound}: {value:.3f} ({'holds' if held else 'NOT MET'})")
    else:
        metrics = end_to_end_metrics(records, setup_seconds(root))
    out = result(records, metrics)
    print(f"  {'fail_ratio':40s} {out['failed'] / out['attempted']:14.6g} 1")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps(out))
    return 0


def result(records, metrics: dict) -> dict:
    failed = sum(r["problem"] is not None for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
