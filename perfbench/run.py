"""Outside-in benchmark of htspec: four workloads, checked answers.

Usage (from the root of a checkout that holds ``src/htspec``):

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

A run computes every op's reference answer (outside any timed region),
then starts fresh interpreters: a warm-up that is thrown away, a few
that only set up (import ``htspec`` and build the inputs), and then as
many full passes over the workload's ops as fit in ``--seconds``.  Each
pass runs in its own process, so lru caches start cold and the peak RSS
is that of one pass.  With ``--trace 1`` untraced and traced passes
alternate; the traced ones wrap the library's public names (see
``spans.py``) and give the per-layer metrics.  Times are scaled to a
reference machine speed measured beside each op (see ``speed.py``).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name
every failed op with its reason.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

# No op may run longer than this; the slowest op (check-paper) takes
# about 10 s on a 2-core machine, so only a hang trips it.
OP_CAP_S = 60.0
# Hard limits for one run, well inside the 180 s a run may take.
LAST_START_S = 120.0
KILL_AFTER_S = 170.0
SETUP_PROBES = 5
# reference-loop samples taken around each set-up, to scale its time
SPEED_SAMPLES = 5
# numpy's OpenBLAS starts a spinning thread per core for the small
# solves in the eigenvector search; on a 2-core machine those threads
# compete with the pass itself and with other tenants
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
CONTAINS_PROBES = 200

END_TO_END = {
    "wall_s": "s",
    "max_op_s": "s",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_frac") or metric.endswith("_share"):
        return "frac"
    return "count"


# -- child: one pass in a fresh interpreter -----------------------------------


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_CAP_S:g} s")


def _poly_table(polys):
    index, table = {}, []
    for p in polys:
        if p not in index:
            index[p] = len(table)
            table.append(list(p.coeffs))
    return index, table


def _spread_sample(n: int, size: int) -> list[int]:
    """Up to ``size`` evenly spaced positions in range(n)."""
    return sorted({(i * n) // size for i in range(size)}) if n else []


def _summarize_catalog(H, cat):
    """Counts in full; a witness subset for up to 256 of the polynomials
    and the assignment of 64 subsets, so that checking stays cheap."""
    wanted = set(_spread_sample(len(cat.polys), 256))
    witness = {}
    for s, p in zip(cat.subsets, cat.poly_of_subset):
        if p in wanted and p not in witness:
            witness[p] = [H.edges[i] for i in s.indices]
    sample = [
        [[H.edges[i] for i in cat.subsets[j].indices], cat.poly_of_subset[j]]
        for j in _spread_sample(len(cat.subsets), 64)
    ]
    return {
        "subsets": len(cat.subsets),
        "polys": [list(p.coeffs) for p in cat.polys],
        "witness": sorted(witness.items()),
        "sample": sample,
    }


def _summarize_spectrum(spec):
    index, table = _poly_table(s.poly for s in spec.sources if s is not None)
    return {
        "values": [[v.real, v.imag] for v in spec.values],
        "sources": [None if s is None else index[s.poly] for s in spec.sources],
        "source_polys": table,
    }


def _probes(spec, rng):
    """Points next to set values (inside the tolerance) and points drawn
    over the set's bounding box."""
    values = spec.values
    out = []
    for _ in range(CONTAINS_PROBES // 2):
        v = values[rng.randrange(len(values))]
        out.append(v + 0.3 * spec.tol * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    lo_re = min(v.real for v in values)
    hi_re = max(v.real for v in values)
    lo_im = min(v.imag for v in values)
    hi_im = max(v.imag for v in values)
    for _ in range(CONTAINS_PROBES - len(out)):
        out.append(complex(rng.uniform(lo_re, hi_re), rng.uniform(lo_im, hi_im)))
    return out


def _steps(op, H, seed):
    """Yield (record id, kind, timed call, summarizer) for one op.

    Every timed call gets the result of the op's first step, so reads
    run on the set just built and the eigenvector search at the radius
    just computed.
    """
    from htspec import cli, matching, spectra, subtrees

    kind, oid = op["kind"], op["id"]
    if kind == "matchpoly":
        yield oid, kind, lambda _: matching.matching_polynomial(H), lambda r: {"coeffs": list(r.coeffs)}
    elif kind == "catalog":
        yield oid, kind, lambda _: subtrees.distinct_matching_polynomials(H), lambda r: _summarize_catalog(H, r)
    elif kind == "spectrum":
        yield oid, kind, lambda _: spectra.set_spectrum(H), _summarize_spectrum
        probes = []

        def contains(spec):
            probes[:] = _probes(spec, random.Random(f"{seed}:{oid}"))
            return [spec.contains(z) for z in probes]

        name = oid.split("/", 1)[1]
        yield f"contains/{name}", "contains", contains, lambda r: {
            "probes": [[z.real, z.imag] for z in probes],
            "answers": r,
        }
        yield f"rotation/{name}", "rotation", lambda spec: spec.rotation_symmetric(), lambda r: {"answer": r}
    elif kind == "cyclotomic":
        yield oid, kind, lambda _: spectra.is_cyclotomic_spectrum(H), lambda r: {"answer": r}
    elif kind == "radius":
        yield oid, kind, lambda _: spectra.spectral_radius(H), lambda r: {"answer": r}
        name = oid.split("/", 1)[1]
        yield f"eigvec/{name}", "eigvec", lambda rho: spectra.find_totally_nonzero_eigenvector(H, rho), lambda r: {
            "lam": [r.lam.real, r.lam.imag],
            "x": [[v.real, v.imag] for v in r.x],
        }
    elif kind == "paper":
        import contextlib
        import io

        out = io.StringIO()

        def paper(_):
            with contextlib.redirect_stdout(out):
                return cli.main(["check-paper", "--format", "json"])

        yield oid, kind, paper, lambda code: {"exit": code, "stdout": out.getvalue()}
    else:
        raise ValueError(f"unknown op kind {kind!r}")


def child(args) -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import htspec

    ops = workloads.build_ops(args.workload, args.seed)
    graphs = [htspec.build(*op["host"]) if op["host"] else None for op in ops]
    setup_done = time.monotonic()
    speedo = speed.Speedometer()
    speedo.sample(SPEED_SAMPLES)
    setup_loops = speedo.samples[:]
    if args.child == "setup":
        print(json.dumps({"setup_done": setup_done, "setup_loops": setup_loops}))
        return 0

    tracer = None
    if args.trace:
        import spans

        # every wrapped frame adds one frame, so keep the library's own
        # recursion budget the same
        sys.setrecursionlimit(2 * sys.getrecursionlimit())
        tracer = spans.Tracer()
        tracer.install()
        speedo = speed.Speedometer(on_steal=tracer.steal)
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    for op, H in zip(ops, graphs):
        built, built_ok = None, True
        for rid, kind, call, summarize in _steps(op, H, args.seed):
            rec = {"id": rid, "op": op["id"], "kind": kind, "t": 0.0, "scale": 1.0, "error": None, "answer": None}
            records.append(rec)
            if not built_ok:
                rec["error"] = "not run: the step it reads from failed"
                continue
            if tracer:
                tracer.current_op = len(records) - 1
            mark, stolen = len(speedo.samples), speedo.stolen
            speedo.sample()
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            t0 = time.perf_counter()
            try:
                with speedo.running():
                    result = call(built)
            except Exception as exc:  # any failure of the op is a result
                rec["error"] = f"{type(exc).__name__}: {exc}"[:160]
                built_ok = rid != op["id"]
                continue
            finally:
                rec["t"] = time.perf_counter() - t0 - (speedo.stolen - stolen)
                signal.setitimer(signal.ITIMER_REAL, 0)
                speedo.sample()
                rec["scale"] = speed.factor(speedo.samples[mark:])
            if rid == op["id"]:
                built = result
            rec["answer"] = summarize(result)
    result = {
        "setup_done": setup_done,
        "setup_loops": setup_loops,
        "records": records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics([rec["scale"] for rec in records])
    print(json.dumps(result))
    return 0


# -- parent: references, passes, checks, metrics ------------------------------


def _spawn(args, mode: str, traced: bool, timeout: float):
    """Run one child; returns (parsed result or None, its set-up time
    scaled to the reference speed)."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
    ]
    speedo = speed.Speedometer()
    speedo.sample(SPEED_SAMPLES)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, env=CHILD_ENV)
    except subprocess.TimeoutExpired:
        return None, None
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = (res["setup_done"] - t0) * speed.factor(speedo.samples + res["setup_loops"])
    return res, setup


def _op_times(passes) -> list[float]:
    """Each op's median time over the passes, scaled to the reference
    speed (see ``speed.py``)."""
    per_pass = ([r["t"] * r["scale"] for r in res["records"]] for res in passes)
    return [statistics.median(ts) for ts in zip(*per_pass)]


class Checker:
    """Checks each answer once; passes with identical answers reuse it."""

    def __init__(self, ops):
        import reference  # sympy and mpmath: the parent alone needs them

        self._check = reference.check
        self._ops = {op["id"]: op for op in ops}
        self._refs = {op["id"]: reference.reference(op) for op in ops}
        self._seen: dict[tuple[str, str], str | None] = {}

    def verdicts(self, records):
        """One reason per record, None where the answer is right."""
        out = []
        first = {}  # op id -> answer of its first step, which reads use
        for rec in records:
            first.setdefault(rec["op"], rec["answer"])
            if rec["error"] is not None:
                out.append(rec["error"])
                continue
            op, built = self._ops[rec["op"]], first[rec["op"]]
            key = (rec["id"], json.dumps([rec["answer"], built]))
            if key not in self._seen:
                ans = dict(rec["answer"], kind=rec["kind"])
                self._seen[key] = self._check(op, self._refs[op["id"]], ans, built)
            out.append(self._seen[key])
        return out


def parent(args) -> int:
    src = os.path.join(os.getcwd(), "src", "htspec", "__init__.py")
    if not os.path.isfile(src):
        print(f"error: no htspec sources at {src}; run from the repository root", file=sys.stderr)
        return 2
    begin = time.monotonic()
    ops = workloads.build_ops(args.workload, args.seed)
    checker = Checker(ops)
    refs_done = time.monotonic()

    _spawn(args, "setup", False, 60)  # warm-up: byte-compile, fill the page cache
    setups = []
    for _ in range(SETUP_PROBES):
        res, setup = _spawn(args, "setup", False, 60)
        if res is None:
            print("error: set-up child failed", file=sys.stderr)
            return 1
        setups.append(setup)

    setups_done = time.monotonic()
    deadline = setups_done + args.seconds
    passes = {False: [], True: []}
    killed = 0
    pass_times = []
    while True:
        traced = bool(args.trace) and len(passes[True]) < len(passes[False])
        need_more = not passes[False] or (args.trace and not passes[True])
        now = time.monotonic()
        predicted = statistics.median(pass_times) if pass_times else 0.0
        if now + predicted > begin + LAST_START_S:
            break
        if not need_more and now + predicted > deadline:
            break
        start = time.monotonic()
        res, setup = _spawn(args, "pass", traced, max(5.0, begin + KILL_AFTER_S - now))
        pass_times.append(time.monotonic() - start)
        if res is None:
            killed += 1
            break
        setups.append(setup)
        passes[traced].append(res)

    passes_done = time.monotonic()
    attempted = failed = 0
    unexpected = set()
    failures: dict[str, str] = {}
    known = workloads.KNOWN_FAILURES[args.workload]
    for res in passes[False] + passes[True]:
        verdicts = checker.verdicts(res["records"])
        for rec, reason in zip(res["records"], verdicts):
            attempted += 1
            if reason is not None:
                failed += 1
                failures[rec["id"]] = reason
                if rec["id"] not in known:
                    unexpected.add(rec["id"])
    for rid, reason in sorted(failures.items()):
        tag = "known" if rid in known else "NEW"
        print(f"FAIL [{tag}] {rid}: {reason}")
    if killed:
        print(f"FAIL a pass was stopped after {KILL_AFTER_S:g} s or crashed")

    untraced = passes[False]
    if not untraced or (args.trace and not passes[True]):
        print("error: no complete pass to report", file=sys.stderr)
        return 1
    op_times = _op_times(untraced)
    if args.trace:
        traced = passes[True]
        layers = {
            name: statistics.median(res["layers"][name] for res in traced) for name in traced[0]["layers"]
        }
        layers["trace_overhead_frac"] = sum(_op_times(traced)) / sum(op_times) - 1
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in layers.items()}
    else:
        values = {
            "wall_s": sum(op_times),
            "max_op_s": max(op_times),
            "ok_frac": 1 - failed / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(res["rss_mb"] for res in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:24s} {m['value']:.6g} {m['unit']}")
    walls = " ".join(
        f"{sum(r['t'] for r in res['records']):.3f}/{sum(r['t'] * r['scale'] for r in res['records']):.3f}"
        for res in untraced
    )
    print(
        f"{args.workload}: {len(untraced)} untraced + {len(passes[True])} traced passes "
        f"(untraced pass sums, raw/scaled: {walls} s), {len(setups)} set-ups, "
        f"{attempted} op results, {failed} failed"
    )
    print(
        f"references {refs_done - begin:.1f} s, set-ups {setups_done - refs_done:.1f} s, "
        f"passes {passes_done - setups_done:.1f} s, checks {time.monotonic() - passes_done:.1f} s",
        file=sys.stderr,
    )
    correct = not unexpected and not killed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
