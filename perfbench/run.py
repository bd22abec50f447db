"""End-to-end benchmark of the three user paths; see README.md.

Usage, from the repository root::

    python3 perfbench/run.py --workload job-pld --seed 1 --seconds 30 \\
        --trace 0

The run compiles ``src`` to bytecode, writes the seeded inputs, starts
the program several times to sample its set-up time, lets the last
start run the timed load, checks every answer against the SciPy
references, and prints the metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics).  Exit codes: 0 ran and checked, 1 a program process
failed or ran over time, 2 refused to run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: program starts per run; the median of their set-up times is setup_s.
SETUP_SAMPLES = 7
#: wall-clock budget of one run, below the 180 s every run must meet.
TIME_LIMIT_S = 170.0
WORKLOADS = ("job-pld", "serve-mixed", "update-rescore")


class Refused(Exception):
    """The benchmark cannot run here; nothing is measured."""


def host_facts(root: Path) -> dict:
    """What changes the numbers besides the code: CPUs, versions, commit."""
    import numpy
    import scipy

    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def declared_units(root: Path, trace: int) -> dict:
    """Unit of each metric the run reports, as BENCHMARK.json declares it."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def refuse_unless_runnable(root: Path) -> None:
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise Refused(
            "src/repro not found: run from the root of a repository checkout"
        )
    overrides = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if overrides:
        raise Refused(
            "REPRO_* variables change the program's behaviour; unset "
            + ", ".join(overrides)
        )


def build(root: Path) -> None:
    """Compile the program to bytecode so no start pays for it."""
    if not compileall.compile_dir(root / "src", quiet=1):
        raise Refused("src does not compile")


def start_program(role, args, inputs, work, env, deadline) -> dict:
    """Run one program process to its end; return its JSON record."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--role", role,
        "--graph", str(inputs.graph), "--streams", str(inputs.arrays),
        "--work", str(work), "--seconds", str(args.seconds),
        "--trace", str(args.trace if role == "load" else 0),
    ]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{role} process ran over the time limit")
    if done.returncode != 0:
        raise RuntimeError(
            f"{role} process exited with {done.returncode}:\n"
            + done.stderr[-4000:]
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, load: dict, setups: list[dict]) -> dict:
    """The end-to-end metrics of one untraced run."""
    from layers import OP_KINDS

    ops = [o for o in load["ops"] if o["kind"] in OP_KINDS[workload]]
    refresh = [o["refresh_s"] for o in load["ops"] if "refresh_s" in o]
    stream_s = sum(
        r.get("stream_end", r["t1"]) - r["t0"] for r in load["rounds"]
    )
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": load["peak_rss_mb"],
        "op_ms_p50": statistics.median(o["t1"] - o["t0"] for o in ops) * 1e3,
        "ops_per_s": len(ops) / stream_s,
        "refresh_ms_p50": statistics.median(refresh) * 1e3,
    }


def measure(args, root: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    refuse_unless_runnable(root)
    units = declared_units(root, args.trace)
    build(root)
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    import checks
    import inputs as spec
    import layers

    out = root / ".perfbench"
    work = out / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        inputs = spec.write_inputs(args.workload, args.seed, work)
        setups = [
            start_program("setup", args, inputs, work, env, deadline)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        load = start_program("load", args, inputs, work, env, deadline)
        setups.append(load)
        with np.load(inputs.arrays) as data:
            streams = {key: data[key] for key in data.files}
        verdict = checks.CHECKS[args.workload](
            work, inputs.graph, streams, load
        )
        import_s = [s["import_s"] for s in setups]
        if args.trace:
            values = layers.per_layer(args.workload, load, import_s)
            stem = out / f"trace-{args.workload}-seed{args.seed}"
            stem.with_suffix(".json").write_text(
                json.dumps(layers.chrome_trace(load))
            )
            Path(f"{stem}.summary.json").write_text(
                json.dumps(layers.self_time_summary(load), indent=1)
            )
        else:
            values = end_to_end(args.workload, load, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            + ", ".join(sorted(set(values) ^ set(units)))
        )
    metrics = {name: (values[name], units[name]) for name in units}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(root),
        "rounds": len(load["rounds"]),
        "checked": verdict.checked,
        "wrong": verdict.wrong,
        "wrong_count": verdict.wrong_count,
    }
    queries = [o["t1"] - o["t0"] for o in load["ops"] if o["kind"] == "query"]
    if len(queries) >= 1000:
        record["query_ms_p99"] = statistics.quantiles(
            queries, n=100
        )[-1] * 1e3
    return {
        "record": record,
        "correct": verdict.wrong_count == 0,
        "attempted": int(load["attempted"]),
        "failed": int(load["failed"]) + verdict.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args, Path.cwd())
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = result["record"]
    print("run " + json.dumps(record))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(
        f"attempted {result['attempted']}, failed {result['failed']}, "
        f"answers checked {record['checked']}, wrong {record['wrong_count']}"
    )
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
