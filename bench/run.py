"""confalg benchmark: closed-loop CLI workloads with answer-checked verdicts.

    python3 bench/run.py --workload {axioms,closure,decide,all} --seed N \
        --seconds S --trace {0,1}

One client drives ``confalg.cli.main`` in-process: it sends a request, waits
for the envelope, checks the answer against the one fixed when the input was
built (``workloads.py``), feeds every decided report to the ``verify`` verb,
then sends the next request.  Requests come in blocks of a fixed mix, drawn
fresh from ``--seed``; blocks run until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each block
untraced and then traced (``tracer.py``) and prints the per-layer metrics and
the tracing overhead.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process and prints all of their metrics.

Times are scaled to a reference machine speed (see ``SpeedGauge``), because
the machines this runs on change speed by up to 2x for tens of seconds at a
time; the unscaled median latency is printed beside the scaled metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import refpoly as rp  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

EXIT_CODES = {"decided": 0, "undecided": 2, "error": 1}
MIN_SAMPLES = 110  # at least 10 samples beyond p90
OVERRUN = 0.6  # share of --seconds a run may add to reach MIN_SAMPLES
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "verify_p50_ms": "ms",
    "decided_ratio": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


# -- machine speed -----------------------------------------------------------

_P1 = rp.add(rp.add(rp.var("d", 2), rp.scale(rp.var("x"), 3)), rp.const(Fraction(1, 3)))
_P2 = rp.mul(_P1, rp.sub(rp.mul(rp.var("x"), rp.var("d")), rp.const(2)))
_SHIFT = {"d": rp.add(rp.var("l"), rp.var("d")), "x": rp.sub(rp.var("x"), rp.var("l"))}


def _kernel() -> None:
    """Rational polynomial substitutions and products, in the benchmark's own code."""
    for _ in range(10):
        rp.mul(rp.subst(_P2, _SHIFT), _P1)


class SpeedGauge:
    """Scale factor from this machine's current speed to a reference speed.

    A fixed kernel that uses no confalg code is timed at most every
    ``PERIOD`` seconds; a wall time multiplied by ``factor()`` is the time
    the same work takes where the kernel runs in ``REF_S`` seconds.  The
    median of the last three kernel times follows the machine's slow and
    fast phases, which last tens of seconds.  The kernel does the kind of
    work confalg does (dicts of exponent tuples to Fractions), so both slow
    down alike: across 77 windows of a 200 s probe, slow phases took 1.49x
    as long as fast ones for this kernel and 1.49-1.51x for confalg
    requests.
    """

    REF_S = 0.006
    PERIOD = 0.3

    def __init__(self) -> None:
        self._samples: deque[float] = deque(maxlen=3)
        self._last = float("-inf")
        self.history: list[float] = []

    def factor(self, fresh: bool = False) -> float:
        if fresh or clock() - self._last > self.PERIOD:
            t0 = clock()
            _kernel()
            self._last = clock()
            self._samples.append(self._last - t0)
        value = self.REF_S / statistics.median(self._samples)
        self.history.append(value)
        return value


# -- calling the CLI in-process ------------------------------------------------


@dataclass
class Call:
    code: int | None
    text: str
    seconds: float
    crash: str | None


def call_main(cli, argv: list[str], payload: str) -> Call:
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(payload), io.StringIO()
    buf = sys.stdout
    crash = None
    code = None
    t0 = clock()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a traceback out of main is a failed request
        crash = f"exception {type(exc).__name__}: {exc}"
    except SystemExit as exc:
        crash = f"SystemExit({exc.code})"
    finally:
        seconds = clock() - t0
        sys.stdin, sys.stdout = stdin, stdout
    return Call(code, buf.getvalue(), seconds, crash)


def read_envelope(call: Call) -> tuple[dict | None, str | None]:
    """The envelope, or why it is not an acceptable one."""
    if call.crash:
        return None, call.crash
    try:
        env = json.loads(call.text)
    except ValueError:
        return None, "envelope does not parse"
    if not isinstance(env, dict) or call.text.count("\n") != 1:
        return None, "output is not one JSON object on one line"
    status = env.get("status")
    if EXIT_CODES.get(status) != call.code:
        return None, f"exit code {call.code} does not match status {status!r}"
    return env, None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    undecided: int = 0
    latency: list[float] = field(default_factory=list)  # scaled seconds
    verify: list[float] = field(default_factory=list)
    raw_latency: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(what)


def serve(cli, req: workloads.Request, gauge: SpeedGauge, tally: Tally, tracer=None) -> float:
    """Send one request and its verify; check both.  Returns scaled seconds."""
    scale = gauge.factor()
    tally.attempted += 1
    label = f"{req.verb} {json.dumps(req.payload)[:160]}"
    if tracer is not None:
        tracer.begin_request(len(tracer.requests), req.verb)
    call = call_main(cli, [req.verb, *req.flags], json.dumps(req.payload))
    if tracer is not None:
        tracer.end_request(scale)
    tally.latency.append(call.seconds * scale)
    tally.raw_latency.append(call.seconds)
    spent = call.seconds * scale
    env, problem = read_envelope(call)
    if problem is None and env["status"] == "error":
        problem = f"error envelope {env.get('error')}"
    if problem is not None:
        tally.fail(f"{label}: {problem}")
        return spent
    if env["status"] == "undecided":
        tally.undecided += 1
        return spent
    try:
        problem = req.check(env)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problem = f"malformed result: {type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.begin_request(len(tracer.requests), "verify")
    ver = call_main(cli, ["verify"], call.text)
    if tracer is not None:
        tracer.end_request(scale)
    tally.verify.append(ver.seconds * scale)
    spent += ver.seconds * scale
    venv, vproblem = read_envelope(ver)
    if vproblem is None and (venv["status"] != "decided" or venv["result"].get("verified") is not True):
        vproblem = f"verify answered {venv['status']}: {venv.get('error')}"
    if problem or vproblem:
        tally.fail(f"{label}: {problem or 'verify ' + vproblem}")
    return spent


# -- set-up time -----------------------------------------------------------------


class SetupProbe:
    """Fresh interpreters answering a trivial request, spread over the run.

    Each probe runs ``python -m confalg.cli product`` and times it until the
    process exits; the metric is the median of ``SETUP_REPEATS`` probes,
    taken at even intervals so that they sample the machine's phases like
    the requests do.  One untimed probe first writes bytecode caches.
    """

    def __init__(self, gauge: SpeedGauge, tally: Tally) -> None:
        self.gauge = gauge
        self.tally = tally
        self.req = workloads.trivial_product()
        self.cmd = [sys.executable, "-m", "confalg.cli", self.req.verb]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self._probe()
        self.times.clear()

    def _probe(self) -> None:
        scale = self.gauge.factor(fresh=True)
        t0 = clock()
        proc = subprocess.run(
            self.cmd, input=json.dumps(self.req.payload), capture_output=True,
            text=True, cwd=ROOT, env=self.env, timeout=120,
        )
        seconds = clock() - t0
        scale = (scale + self.gauge.factor(fresh=True)) / 2
        self.times.append(seconds * scale)
        env, problem = read_envelope(Call(proc.returncode, proc.stdout, seconds, None))
        if problem is None:
            problem = self.req.check(env)
        if problem or proc.stderr:
            self.tally.fail(f"setup probe: {problem or proc.stderr[-300:]}")

    def due(self, fraction_done: float) -> None:
        """Probe if fewer than ``fraction_done`` of the probes have run."""
        while len(self.times) < min(SETUP_REPEATS, int(fraction_done * SETUP_REPEATS) + 1):
            self._probe()

    def median(self) -> float:
        self.due(1.0)
        return statistics.median(self.times)


# -- runs -------------------------------------------------------------------------


def load_cli():
    if not (SRC / "confalg" / "cli.py").is_file():
        raise SystemExit(f"bench: confalg sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import confalg.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: imported confalg from {cli.__file__}, not {SRC}")
    return cli


def keep_going(started: float, seconds: float, samples: int) -> bool:
    elapsed = clock() - started
    if elapsed < seconds:
        return True
    return samples < MIN_SAMPLES and elapsed < seconds * (1 + OVERRUN)


def run_plain(cli, name: str, rng: random.Random, seconds: float, gauge: SpeedGauge) -> tuple[Tally, dict]:
    warm = Tally()
    for req in workloads.block(name, rng):  # first calls fill lazy state
        serve(cli, req, gauge, warm)
    setup = SetupProbe(gauge, warm)
    tally = Tally()
    started = clock()
    while keep_going(started, seconds, len(tally.latency)):
        setup.due((clock() - started) / seconds)
        for req in workloads.block(name, rng):
            serve(cli, req, gauge, tally)
    setup_s = setup.median()
    busy = sum(tally.latency) + sum(tally.verify)
    metrics = {
        "throughput_rps": (len(tally.latency) + len(tally.verify)) / busy,
        "latency_p50_ms": statistics.median(tally.latency) * 1e3,
        "latency_p90_ms": statistics.quantiles(tally.latency, n=10)[8] * 1e3,
        "verify_p50_ms": statistics.median(tally.verify) * 1e3,
        "decided_ratio": 1 - tally.undecided / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    merge(tally, warm)
    return tally, metrics


def run_traced(cli, name: str, rng: random.Random, seconds: float, gauge: SpeedGauge, seed: int) -> tuple[Tally, dict]:
    tally = Tally()
    for req in workloads.block(name, rng):
        serve(cli, req, gauge, tally)
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    started = clock()
    while clock() - started < seconds:
        reqs = workloads.block(name, rng)
        for req in reqs:
            plain_s += serve(cli, req, gauge, tally)
        tracer.install()
        try:
            for req in reqs:
                traced_s += serve(cli, req, gauge, tally, tracer)
        finally:
            tracer.uninstall()
    metrics = tracer.metrics(traced_s / plain_s)
    tracer.write(
        ROOT / ".bench_out" / f"trace_{name}.jsonl",
        {"workload": name, "seed": seed, "requests": len(tracer.requests)},
    )
    return tally, metrics


def merge(into: Tally, other: Tally) -> None:
    into.attempted += other.attempted
    into.failed += other.failed
    into.undecided += other.undecided
    into.problems = (into.problems + other.problems)[:5]


def report(name: str, seed: int, tally: Tally, metrics: dict, units: dict, gauge: SpeedGauge) -> None:
    print(f"workload {name}  seed {seed}  requests {tally.attempted}  "
          f"failed {tally.failed}  undecided {tally.undecided}")
    print(f"  {'error_ratio':34s} {tally.failed / tally.attempted:14.6g} fraction")
    print(f"  {'undecided_ratio':34s} {tally.undecided / tally.attempted:14.6g} fraction")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:14.6g} {units[key]}")
    if tally.raw_latency:
        print(f"  (unscaled latency p50 {statistics.median(tally.raw_latency) * 1e3:.3f} ms; "
              f"speed factor median {statistics.median(gauge.history):.3f}, "
              f"range {min(gauge.history):.3f}-{max(gauge.history):.3f}; "
              f"samples {len(tally.latency)})")
    if "trace.request_s" in metrics and metrics["trace.request_s"]:
        per_module: dict[str, float] = {}
        for key, value in metrics.items():
            if key.endswith(".self_s"):
                mod = key.split(".")[0]
                per_module[mod] = per_module.get(mod, 0.0) + value
        total = metrics["trace.request_s"]
        shares = "  ".join(f"{m} {v / total:.1%}" for m, v in sorted(per_module.items(), key=lambda kv: -kv[1]))
        print(f"  self-time share of request time: {shares}  "
              f"other {(total - sum(per_module.values())) / total:.1%}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_cli()
    rng = random.Random(f"{name}:{seed}")
    gauge = SpeedGauge()
    if trace:
        tally, metrics = run_traced(cli, name, rng, seconds, gauge, seed)
        units = dict(tracing.metric_names())
    else:
        tally, metrics = run_plain(cli, name, rng, seconds, gauge)
        units = END_TO_END_UNITS
    report(name, seed, tally, metrics, units, gauge)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own interpreter, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} failed: {proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
