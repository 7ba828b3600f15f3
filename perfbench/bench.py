"""One benchmark run: inputs, lgsqe commands as child processes, checks, metrics.

A run is a closed loop with one client: each ``lgsqe`` command starts only
after the previous one has ended. ``fit`` runs on the workload's fixed
training pair; then cycles of ``eval``, ``score``, ``filter`` and a one-image
``score`` run (the set-up cost) repeat until the measurement window has
passed, with a second ``fit`` half-way. Every command is timed from spawn to
exit, and its own peak RSS comes from ``os.wait4``. Between commands the
benchmark times a fixed probe of its own, which gives the machine's speed
during the run; end-to-end times are scaled by it. Every output is checked; a
nonzero exit or a failed check is a failed operation.

With tracing on, each command runs twice per cycle: plainly, then under
``tracer.py``, which records spans around each layer's public functions in the
same process as ``lgsqe.cli.main``. The traced run must write the same bytes
as the plain one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import tracer
from workloads import Workload, training_pair, write_bulk

KEEP_FRACTION = 0.5
SETUPS_PER_CYCLE = 1
# fit runs this many times, spread evenly over the window, so that fit_s is
# not one sample taken in whatever state the machine was in at the start.
FITS = 2
START_LIMIT_S = 140.0  # start no cycle expected to end later than this after launch
KILL_LIMIT_S = 170.0  # kill a command still running this long after launch (the run must end by 180 s)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread. On a 2-vCPU virtual machine two threads made every
# command slower and its time less steady: a stall of either vCPU stalls
# both threads (see README.md, "Steadiness").
BLAS_THREADS = 1
TRACER = Path(__file__).resolve().parent / "tracer.py"
# Time of speed_probe() at the reference machine speed, about its median in
# the faster spells of a 2-vCPU Xeon VM (numpy 2.4.6). End-to-end times are
# scaled to this speed; see speed_probe().
PROBE_REF_S = 0.145
_PROBE_ARRAY = np.random.default_rng(0).random(2_000_000)
# The probe writes only into this buffer: its time must not depend on how
# the allocator of this process happens to serve large requests.
_PROBE_OUT = np.empty_like(_PROBE_ARRAY)
_PROBE_JSON = json.dumps({"t": [[i * 0.5, str(i)] for i in range(120_000)]})


class CheckFailed(Exception):
    """A command exited nonzero or wrote output that fails its check."""


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter, JSON, sort and memory-bound numpy work.

    The virtual machines this benchmark runs on change speed for minutes at a
    time: whole runs of every lgsqe command were 20-40% slower than others,
    in CPU time as much as in wall time, so no statistic within a run can
    remove it. The probe runs in the benchmark's own process between commands
    and shares no code with lgsqe, so a change to the program cannot move it.
    Across runs, the log of each command's median time rose with the log of
    the probe's median (of an earlier, allocating version of this probe)
    with a slope of about 1.
    """
    begin = time.perf_counter()
    total = 0
    for i in range(1_200_000):
        total += i * i
    json.loads(_PROBE_JSON)
    _PROBE_OUT[:] = _PROBE_ARRAY
    _PROBE_OUT[:1_600_000].sort()
    for scale in (1.5, 0.5):
        np.multiply(_PROBE_ARRAY, scale, out=_PROBE_OUT)
        np.add(_PROBE_OUT, 2.0, out=_PROBE_OUT)
        _PROBE_OUT.sum()
    return time.perf_counter() - begin


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def source_digest(src: Path) -> str:
    """SHA-256 over the names and bytes of every file of the package under test."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def read_lgt(path: Path) -> tuple[int, np.ndarray]:
    """(provenance flag, pixels as (count, h*w*c) float32) of an LGT file."""
    raw = path.read_bytes()
    if raw[:4] != b"LGT1" or len(raw) < 21:
        raise CheckFailed(f"{path.name}: not an LGT file")
    count, height, width, channels = struct.unpack("<IIII", raw[4:20])
    if len(raw) != 21 + 4 * count * height * width * channels:
        raise CheckFailed(f"{path.name}: size does not match its header")
    return raw[20], np.frombuffer(raw, dtype="<f4", offset=21).reshape(count, height * width * channels)


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path.name}: header is not {','.join(header)}")
    return rows[1:]


def check_model(model: Path) -> None:
    doc = json.loads(model.read_text())
    indices = doc["selection"]["indices"]
    if not doc.get("format_version") or len(indices) != doc["ensemble"]["n_features"] or not indices:
        raise CheckFailed("model selection and ensemble disagree")


def check_report(report: Path, n: int) -> float:
    """Counts and histograms cover all 2n bulk images; returns pr_auc."""
    doc = json.loads(report.read_text())
    if sum(doc["counts"].values()) != 2 * n:
        raise CheckFailed(f"report counts sum to {sum(doc['counts'].values())}, expected {2 * n}")
    if doc["metadata"]["eval_counts"] != {"real": n, "generated": n} or doc["metadata"]["evaluated_on"] != "all":
        raise CheckFailed("report was not made on all bulk images")
    if sum(doc["histogram"]["real"]) != n or sum(doc["histogram"]["generated"]) != n:
        raise CheckFailed("report histograms do not cover the bulk images")
    if not 0.0 < doc["pr_auc"] <= 1.0:
        raise CheckFailed(f"pr_auc {doc['pr_auc']} outside (0, 1]")
    return float(doc["pr_auc"])


def check_scores(scores: Path, n: int) -> list[str]:
    """One row per bulk image, in id order; returns the score strings."""
    rows = _rows(scores, ["sample_id", "provenance", "score"])
    if [r[0] for r in rows] != [str(i) for i in range(n)]:
        raise CheckFailed(f"{scores.name}: ids are not 0..{n - 1}")
    if any(r[1] != "generated" or not 0.0 <= float(r[2]) <= 1.0 for r in rows):
        raise CheckFailed(f"{scores.name}: a row has a wrong provenance or a score outside [0, 1]")
    return [r[2] for r in rows]


def check_filter(ids_csv: Path, kept: Path, bulk: Path, scores: list[str]) -> None:
    """Kept ids are the lowest-score half of the score CSV, and the kept LGT holds exactly those images.

    Both CSVs print scores to 6 decimals, so the tie-break by id is checked to
    that resolution: every id scoring below the cut is kept, every id above it
    is not, and the kept ids' scores match the score CSV and ascend.
    """
    rows = _rows(ids_csv, ["sample_id", "score"])
    n = len(scores)
    k = int(KEEP_FRACTION * n)
    ids = [int(r[0]) for r in rows]
    if len(ids) != k or len(set(ids)) != k or not all(0 <= i < n for i in ids):
        raise CheckFailed(f"{ids_csv.name}: expected {k} distinct ids in [0, {n})")
    if any(r[1] != scores[i] for r, i in zip(rows, ids)):
        raise CheckFailed(f"{ids_csv.name}: kept scores differ from the score CSV")
    values = [float(scores[i]) for i in ids]
    if values != sorted(values):
        raise CheckFailed(f"{ids_csv.name}: kept ids are not in ascending score order")
    cut = values[-1] if values else -1.0
    kept_set = set(ids)
    if any((float(s) < cut) != (i in kept_set) and float(s) != cut for i, s in enumerate(scores)):
        raise CheckFailed(f"{ids_csv.name}: kept ids are not the lowest-score half")
    flag, pixels = read_lgt(kept)
    _, bulk_pixels = read_lgt(bulk)
    if flag != 1 or pixels.shape[0] != k or not np.array_equal(pixels, bulk_pixels[ids]):
        raise CheckFailed(f"{kept.name}: does not hold the kept images in kept order")


def check_setup(one_csv: Path, scores: list[str] | None) -> None:
    """The one-image file is bulk image 0, so its score must match row 0 of the bulk scores."""
    rows = _rows(one_csv, ["sample_id", "provenance", "score"])
    if len(rows) != 1 or rows[0][:2] != ["0", "generated"]:
        raise CheckFailed(f"{one_csv.name}: expected one row for sample 0")
    if scores is not None and abs(float(rows[0][2]) - float(scores[0])) > 1e-5:
        raise CheckFailed(f"{one_csv.name}: score {rows[0][2]} differs from the bulk score {scores[0]}")


class Ledger:
    """Output digests by (code, inputs, command): a fixed seed must give identical bytes.

    It persists in the work directory, so repetitions within a run and across
    runs of the same code and inputs are all compared.
    """

    def __init__(self, path: Path):
        self.path = path
        self.entries = json.loads(path.read_text()) if path.exists() else {}

    def expect(self, key: str, digest: str) -> None:
        known = self.entries.setdefault(key, digest)
        if known != digest:
            raise CheckFailed(f"output digest {digest[:12]} differs from an earlier run's {known[:12]}")

    def save(self) -> None:
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def cpu_accounting() -> dict[str, float]:
    """CPU seconds of the whole machine by state (/proc/stat) and of this process and its children."""
    with open("/proc/stat") as fh:
        ticks = [int(v) for v in fh.readline().split()[1:9]]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    out = {f"machine_{n}": t / os.sysconf("SC_CLK_TCK") for n, t in zip(names, ticks)}
    for who, usage in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN)):
        ru = resource.getrusage(usage)
        out[f"{who}_cpu"] = ru.ru_utime + ru.ru_stime
    return out


def environment(root: Path, source: str, seed: int) -> dict:
    """What the numbers depend on besides the code: recorded in every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = out.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "config": blas.get("openblas configuration")},
        "git_commit": commit,
        "src_sha256": source,
        "seed": seed,
    }


class Session:
    """Runs, times and checks the commands of one workload run."""

    def __init__(self, workload: Workload, seed: int, root: Path, work: Path, trace: bool, started: float):
        self.workload, self.seed, self.trace, self.started = workload, seed, trace, started
        self.root = root
        threads = str(BLAS_THREADS)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"), **{v: threads for v in BLAS_THREAD_VARS}}
        self.out = work / "run" / workload.name
        self.out.mkdir(parents=True, exist_ok=True)
        cache = work / "cache" / f"{workload.name}-t{workload.train_count}-p{workload.pool_count}"
        self.train = training_pair(workload, cache)
        self.bulk_real, self.bulk_generated, self.one = write_bulk(workload, seed, cache, self.out)
        self.ledger = Ledger(work / "ledger.json")
        self.source = source_digest(root / "src" / "lgsqe")
        spec = {k: v for k, v in asdict(workload).items() if k != "why"}
        self.key = hashlib.sha256(f"{self.source}:{threads}:{json.dumps(spec, sort_keys=True)}".encode()).hexdigest()
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.wall: dict[str, list[float]] = {c: [] for c in ("fit", "eval", "score", "filter", "setup")}
        self.rss_mb: dict[str, list[float]] = {c: [] for c in self.wall}
        self.cpu_s: dict[str, list[float]] = {c: [] for c in self.wall}
        self.layers: dict[str, list[dict]] = {c: [] for c in self.wall}
        self.missing: set[str] = set()
        self.pr_auc: float | None = None
        self.scores: list[str] | None = None
        self.killed = False
        self.probe_s: list[float] = []

    def path(self, name: str) -> Path:
        return self.out / name

    def argv(self, command: str) -> list[str]:
        model, out = str(self.path("model.json")), self.out
        real, generated, bulk_real, bulk_generated = map(str, (*self.train, self.bulk_real, self.bulk_generated))
        return {
            "fit": ["fit", real, generated, "-o", model, *self.workload.fit_flags],
            "eval": ["eval", model, bulk_real, bulk_generated, "-o", f"{out}/report.json", "--use", "all"],
            "score": ["score", model, bulk_generated, "-o", f"{out}/scores.csv"],
            "filter": ["filter", model, bulk_generated, "-o", f"{out}/kept.lgt", "--ids-out", f"{out}/kept.csv",
                       "--keep-fraction", str(KEEP_FRACTION)],
            "setup": ["score", model, str(self.one), "-o", f"{out}/one.csv"],
        }[command]

    def check(self, command: str) -> str:
        """Check one command's outputs; returns their digest."""
        n, p = self.workload.bulk_count, self.path
        if command == "fit":
            check_model(p("model.json"))
            return _sha256(p("model.json"))
        if command == "eval":
            self.pr_auc = check_report(p("report.json"), n)
            return _sha256(p("report.json"))
        if command == "score":
            self.scores = check_scores(p("scores.csv"), n)
            return _sha256(p("scores.csv"))
        if command == "filter":
            if self.scores is None:
                raise CheckFailed("no checked score CSV to compare the filter output with")
            check_filter(p("kept.csv"), p("kept.lgt"), self.bulk_generated, self.scores)
            return _sha256(p("kept.csv"), p("kept.lgt"))
        check_setup(p("one.csv"), self.scores)
        return _sha256(p("one.csv"))

    def _spawn(self, argv: list[str], log: Path) -> tuple[int, float, float, float]:
        """(exit code, wall seconds, peak RSS in MB, CPU seconds) of one child process."""
        with open(log, "wb") as fh:
            begin = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.started + KILL_LIMIT_S - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - begin
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime

    def run(self, command: str, plain_wall: float | None = None) -> float | None:
        """Run one command, traced when ``plain_wall`` (the untraced run's time) is
        given; returns its wall time, or None if it failed."""
        traced = plain_wall is not None
        self.attempted += 1
        spans = self.path(f"spans-{command}.json")
        prefix = [sys.executable, str(TRACER), str(spans)] if traced else [sys.executable, "-m", "lgsqe.cli"]
        log = self.path(f"{command}{'-traced' if traced else ''}.log")
        code, wall, rss, cpu = self._spawn(prefix + self.argv(command), log)
        self.probe_s.append(speed_probe())
        try:
            if code != 0:
                self.killed |= code < 0
                tail = log.read_text(errors="replace").strip().splitlines()[-1:]
                raise CheckFailed(f"exit code {code}: {' '.join(tail)}")
            seeded = "" if command == "fit" else f":seed={self.seed}"
            self.ledger.expect(f"{self.key}{seeded}:{command}", self.check(command))
        except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failed += 1
            self.errors.append(f"{command}{' (traced)' if traced else ''}: {exc}")
            print(f"perfbench: {self.errors[-1]}", file=sys.stderr)
            return None
        if traced:
            self.layers[command].append(self._layer_metrics(command, spans, wall, plain_wall))
        else:
            self.wall[command].append(wall)
            self.rss_mb[command].append(rss)
            self.cpu_s[command].append(cpu)
        return wall

    def command(self, command: str) -> None:
        plain = self.run(command)
        if self.trace and plain is not None:
            self.run(command, plain_wall=plain)

    def _layer_metrics(self, command: str, spans_path: Path, traced_wall: float, plain_wall: float) -> dict[str, float]:
        doc = json.loads(spans_path.read_text())
        self.missing.update(doc["missing"])
        out = {}
        for name, (self_s, calls) in tracer.self_times(doc["spans"]).items():
            out[f"{command}.{name}.s"] = self_s
            out[f"{command}.{name}.calls"] = calls
        counts = doc["counts"]
        for name, value in counts.items():
            out[f"{command}.{name}"] = value
        width = counts.get("saab.build_representation.width")
        selected = counts.get("dft.select_features.selected", counts.get("pipeline.score_images.selected"))
        if width and selected:
            out[f"{command}.saab.build_representation.used_column_ratio"] = selected / width
        roots = [end - start for _, start, end, parent in doc["spans"] if parent < 0]
        out[f"{command}.trace.overhead.s"] = traced_wall - plain_wall
        out[f"{command}.trace.startup.s"] = traced_wall - sum(roots)
        return out

    def measure(self, seconds: float) -> int:
        """fit, then cycles until ``seconds`` have passed, with the other fits
        at even shares of the window; returns the cycle count."""
        begin, before = time.monotonic(), cpu_accounting()
        speed_probe()  # warm-up: the first touches of the probe's buffer fault it in
        self.command("fit")
        fits, cycles, last = 1, 0, 0.0
        while not self.killed and (cycles == 0 or time.monotonic() - begin < seconds):
            if cycles and time.monotonic() + last > self.started + START_LIMIT_S:
                break
            tick = time.monotonic()
            if fits < FITS and tick - begin >= seconds * fits / FITS:
                self.command("fit")
                fits += 1
            for command in ("eval", "score", "filter", *["setup"] * SETUPS_PER_CYCLE):
                self.command(command)
            last, cycles = time.monotonic() - tick, cycles + 1
        after = cpu_accounting()
        self.cpu_window = {k: after[k] - before[k] for k in after}
        self.ledger.save()
        return cycles

    def speed_factor(self) -> float:
        """How much slower than the reference speed the machine ran during this run."""
        return statistics.median(self.probe_s) / PROBE_REF_S

    def end_to_end(self) -> dict[str, float | None]:
        """Medians over the run; times are wall times divided by the run's speed factor."""
        factor = self.speed_factor()

        def med(values, scale=factor):
            return statistics.median(values) / scale if values else None

        score_s = med(self.wall["score"])
        return {
            "fit_s": med(self.wall["fit"]),
            "eval_s": med(self.wall["eval"]),
            "score_img_per_s": self.workload.bulk_count / score_s if score_s else None,
            "filter_s": med(self.wall["filter"]),
            "setup_s": med(self.wall["setup"]),
            "fit_peak_rss_mb": med(self.rss_mb["fit"], 1.0),
            "score_peak_rss_mb": med(self.rss_mb["score"], 1.0),
            "eval_pr_auc": self.pr_auc,
        }

    def per_layer(self) -> dict[str, float]:
        """Median over the traced repetitions of each command."""
        out = {}
        for records in self.layers.values():
            for name in {k for r in records for k in r}:
                out[name] = statistics.median(r.get(name, 0.0) for r in records)
        return out


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, root: Path, work: Path, spec: dict, started: float
) -> dict:
    """One run; returns the full record, whose ``result`` is the contract's last line."""
    session = Session(workload, seed, root, work, trace, started)
    cycles = session.measure(seconds)
    section = "per_layer" if trace else "end_to_end"
    measured = session.per_layer() if trace else session.end_to_end()
    metrics, absent = {}, []
    for entry in spec[section]:
        value = measured.get(entry["name"])
        if value is None:
            absent.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if absent:
        print(f"perfbench: not measured (reported as 0): {', '.join(absent)}", file=sys.stderr)
    result = {
        "correct": session.failed == 0 and not (absent and not trace),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    return {
        "workload": workload.name,
        "why": workload.why,
        "trace": trace,
        "cycles": cycles,
        "environment": environment(root, session.source, seed),
        "speed_factor": session.speed_factor(),
        "samples": {
            "wall_s": session.wall,
            "cpu_s": session.cpu_s,
            "peak_rss_mb": session.rss_mb,
            "probe_s": session.probe_s,
        },
        "cpu_during_window_s": session.cpu_window,
        "missing_spans": sorted(session.missing),
        "not_measured": absent,
        "unlisted_layer_metrics": sorted(set(measured) - {e["name"] for e in spec[section]}) if trace else [],
        "errors": session.errors,
        "result": result,
    }
