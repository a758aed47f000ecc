"""The benchmark's workloads: ``matrix-imcis``, ``matrix-sim`` and ``service-mixed``.

Each workload returns an :class:`Outcome` holding its end-to-end metrics
(measured untraced), its per-layer metrics (when traced), and the count
of operations attempted and failed. See ``README.md`` for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import checks
from perfbench.layers import Tracer, instrument, layer_metrics
from perfbench.reference import REFERENCE_S, reference
from perfbench.serving import TINY_STUDIES, booted_server

#: The ``repro matrix --quick`` cell configuration every workload runs.
QUICK = {"repetitions": 4, "n_samples": 1000, "search_rounds": 100, "quick": True}
MATRIX_ESTIMATORS = {"matrix-imcis": ("imcis",), "matrix-sim": ("is", "ce", "imc")}
SERVICE_ESTIMATORS = ("is", "imc")
#: Root seed of every matrix sweep.
SWEEP_SEED = 1
#: Root seed of the digest cell, which must give the same records on every
#: run of one commit whatever the workload seed.
DIGEST_SEED = 2018
#: Client threads of the service load (the machine has two cores).
CLIENTS = 2
#: Seconds between two reference loops of the service load's main thread;
#: each loop holds the GIL for about a millisecond.
REFERENCE_PAUSE = 0.1
SERVICE_LAYER_METRICS = (
    "service.submit_s",
    "service.queue_wait_s",
    "service.execute_s",
    "service.http_s",
    "service.dedup_ratio",
    "service.rejected",
    "service.jobs_per_s",
    "service.warm_job_p50_s",
    "service.warm_job_tail_s",
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: "dict[str, float]" = field(default_factory=dict)
    layers: "dict[str, float]" = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Failures of the deterministic checks (digests, parity, tracing
    #: perturbing a result). Any of them makes the run incorrect.
    broken: "list[str]" = field(default_factory=list)
    #: Failed operations, deterministic or not, with the reason.
    failures: "list[str]" = field(default_factory=list)
    notes: "list[str]" = field(default_factory=list)
    report: "dict[str, object]" = field(default_factory=dict)
    tracer: "Tracer | None" = None


def tail(values: "list[float]") -> "tuple[float, float, int]":
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``: the eleventh-largest value,
    the percentile it stands at, and the sample count. With fewer than
    eleven samples no percentile qualifies and the maximum is returned
    with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _digest_check(outcome: Outcome, estimators, src: Path, out_dir: Path, key: str) -> None:
    """Run the fixed-seed digest cell and compare it with earlier runs."""
    import repro.experiments.matrix as matrix

    config = matrix.MatrixConfig(
        studies=TINY_STUDIES, estimators=estimators, seed=DIGEST_SEED, workers=1, **QUICK
    )
    value = checks.digest([matrix.run_matrix(config).to_csv_text()])
    fingerprint = checks.source_fingerprint(src / "repro")
    problems = checks.repeat_digest(out_dir / "digests.json", f"{key}:{fingerprint}", value)
    outcome.attempted += 1
    outcome.failed += len(problems)
    outcome.broken += problems
    outcome.failures += problems
    outcome.report["digest_cell"] = value


# ----------------------------------------------------------------------
# matrix-imcis / matrix-sim
# ----------------------------------------------------------------------


class _WindowClosed(Exception):
    """Raised from the progress hook to end a sweep at the window's end."""


def _sweep(matrix, config, deadline: "float | None" = None, scaled: bool = True):
    """One ``run_matrix`` sweep; returns the result and the sweep's wall
    time split at its progress events.

    Each stretch between two events is keyed by the event that ends it:
    ``(event, study, estimator, done)``, or ``("end",)`` for the last
    one. The keys name the same work in every sweep at one root seed,
    whatever the study order. Each value is ``(seconds, scale)``: the
    stretch's wall time and, when *scaled*, ``REFERENCE_S`` over the mean
    of the :func:`reference` times taken just before and just after it
    (1.0 otherwise). The reference runs outside every stretch, so the
    seconds sum to the sweep's wall time less the reference loops, and to
    all of it unscaled. When
    *deadline* passes, the sweep stops at its next event and the result
    is ``None``; the stretches completed so far are returned.
    """
    stretches: "dict[tuple, tuple[float, float]]" = {}
    before = [reference() if scaled else REFERENCE_S]
    last = [0.0]

    def close(key: tuple) -> None:
        now = time.perf_counter()
        after = reference() if scaled else REFERENCE_S
        stretches[key] = (now - last[0], 2 * REFERENCE_S / (before[0] + after))
        before[0] = after
        last[0] = time.perf_counter() if scaled else now

    def progress(event: dict) -> None:
        close((event["event"], event["study"], event["estimator"], event.get("done")))
        if deadline is not None and last[0] >= deadline:
            raise _WindowClosed

    last[0] = time.perf_counter()
    try:
        result = matrix.run_matrix(config, progress=progress)
    except _WindowClosed:
        return None, stretches
    close(("end",))
    return result, stretches


def _cell_records(result) -> "dict[tuple[str, str], dict]":
    return {(record["study"], record["estimator"]): record for record in result.records()}


def run_matrix_workload(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool, src: Path, out_dir: Path
) -> Outcome:
    """Sweep the quick study set for *seconds*.

    A sweep is one plain ``run_matrix`` call over every study at the fixed
    root seed :data:`SWEEP_SEED`: exactly ``repro matrix --quick --seed 1``,
    which prepares its studies from that seed. The root seed is fixed, so
    the work of a run does not depend on the workload seed and the spread
    between runs measures the machine; the IMCIS search's cost varies too
    much from seed to seed for anything else to be steady in a run of
    this length. The workload seed shuffles the study order of every
    sweep. The first sweep always completes; later ones run until the
    window closes and the last is cut at its next progress event, so a
    faster program runs more of the same work, not different work.
    Traced runs run whole sweeps only, and start one only while the
    fastest so far would still end inside the window.

    ``reps_per_s`` is the repetitions of a sweep over the sum, across the
    stretches of :func:`_sweep`, of each stretch's median time at the
    reference speed (its seconds times its scale) over the untraced
    sweeps of the run, the cut one included. Contention on the shared
    machine slows the reference loop as it slows the program, so the
    scaled time follows the program and not the machine's load; the raw
    rates are reported beside it.

    An operation is one (study, estimator) cell, checked in every sweep.
    It fails when its mean CI misses γ in any sweep, or its record differs
    from the first sweep's, or (traced runs) from the untraced sweep's.
    The operations are the same in every run, so two runs of one commit
    count the same failures.

    Set-up prepares every study once before the window opens, so lazy
    imports and first-use costs stay out of it. Traced runs run every
    sweep twice, once with tracing off, and require both to give the
    same records.
    """
    import repro.experiments.matrix as matrix
    from repro.models.registry import REGISTRY

    outcome = Outcome()
    studies = TINY_STUDIES if tiny else tuple(REGISTRY.quick_studies())
    estimators = MATRIX_ESTIMATORS[workload]
    tracer = outcome.tracer = Tracer()
    undo = instrument(tracer) if trace else (lambda: None)
    try:
        tracer.active = trace
        start = time.perf_counter()
        for name in studies:
            REGISTRY.make_study(name, rng=seed, quick=True)
        prepare_s = time.perf_counter() - start
        tracer.active = False

        shuffle = random.Random(seed)
        walls = {False: 0.0, True: 0.0}
        stretch_times: "dict[tuple, list[tuple[float, float]]]" = {}
        sweep_rates: "list[float]" = []
        latencies: "list[float]" = []
        csv_texts: "list[str]" = []
        first_cells: "dict[tuple[str, str], dict]" = {}
        failed_cells: "dict[tuple[str, str], str]" = {}
        quickest = float("inf")
        deadline = time.perf_counter() + seconds
        sweeps = 0
        while not (trace and sweeps and time.perf_counter() + quickest > deadline):
            order = list(studies)
            shuffle.shuffle(order)
            config = matrix.MatrixConfig(
                studies=tuple(order), estimators=estimators, seed=SWEEP_SEED, workers=1, **QUICK
            )
            modes = [False] if not trace else ([False, True] if sweeps % 2 == 0 else [True, False])
            closing = None if trace or sweeps == 0 else deadline
            sweep_start = time.perf_counter()
            results = {}
            for traced in modes:
                tracer.active = traced
                result, stretches = _sweep(matrix, config, closing, scaled=not trace)
                tracer.active = False
                wall = sum(seconds for seconds, _scale in stretches.values())
                walls[traced] += wall
                results[traced] = result
                if not traced:
                    for key, value in stretches.items():
                        stretch_times.setdefault(key, []).append(value)
                    latencies += [v[0] for k, v in stretches.items() if k[0] == "repetition"]
                    if result is not None:
                        sweep_rates.append(
                            sum(r["repetitions"] for r in result.records()) / wall
                        )
            if results[False] is None:
                break
            quickest = min(quickest, time.perf_counter() - sweep_start)
            cells = _cell_records(results[False])
            first_cells = first_cells or cells
            problems = {
                key: f"sweep {sweeps}: {key[0]}/{key[1]} record differs from the first sweep's"
                for key in cells if cells[key] != first_cells.get(key)
            }
            if trace:
                traced_cells = _cell_records(results[True])
                problems.update({
                    key: f"sweep {sweeps}: {key[0]}/{key[1]} traced record differs from untraced"
                    for key in cells if cells[key] != traced_cells.get(key)
                })
            outcome.broken += list(problems.values())
            for key, record in cells.items():
                problems.setdefault(key, next(iter(checks.cell_failures([record])), None))
                if problems[key] is not None:
                    failed_cells.setdefault(key, problems[key])
            csv_texts.append(results[False].to_csv_text())
            sweeps += 1
            if not trace and time.perf_counter() >= deadline:
                break
    finally:
        tracer.active = False
        undo()

    outcome.attempted += len(first_cells)
    outcome.failed += len(failed_cells)
    outcome.failures += list(failed_cells.values())
    reps = sum(record["repetitions"] for record in first_cells.values())
    _digest_check(outcome, estimators, src, out_dir, workload)
    tail_value, tail_pct, samples = tail(latencies)
    cold_p50 = statistics.median(latencies)
    raw_rate = reps / sum(
        statistics.median(seconds for seconds, _scale in times) for times in stretch_times.values()
    )
    scaled_rate = reps / sum(
        statistics.median(seconds * scale for seconds, scale in times)
        for times in stretch_times.values()
    )
    outcome.end_to_end = {"reps_per_s": scaled_rate}
    outcome.notes.append(
        f"{sweeps} whole sweep(s) of {reps} repetitions, {walls[False]:.2f} s untraced, "
        f"sweep rates {', '.join(f'{rate:.3f}' for rate in sweep_rates)} 1/s; "
        f"median stretches {raw_rate:.3f} 1/s raw, {scaled_rate:.3f} 1/s at the reference speed; "
        f"repetition latency p50 {cold_p50:.4f} s, p{tail_pct:.1f} {tail_value:.4f} s "
        f"of {samples}"
    )
    outcome.report.update(
        sweeps=sweeps,
        studies=list(studies),
        estimators=list(estimators),
        records_digest=checks.digest(csv_texts),
        sweep_rates=sweep_rates,
        raw_reps_per_s=raw_rate,
        cold_p50_s=cold_p50,
        cold_tail_s=tail_value,
        cold_tail_percentile=tail_pct,
        cold_samples=samples,
    )
    if trace:
        wall = prepare_s + walls[True]
        outcome.layers = layer_metrics(tracer, wall, threading.get_ident())
        outcome.layers.update({name: 0.0 for name in SERVICE_LAYER_METRICS})
        outcome.layers["obs.trace_overhead_ratio"] = walls[True] / walls[False]
        outcome.layers["latency.cold_p50_s"] = cold_p50
        outcome.layers["latency.cold_tail_s"] = tail_value
        self_times = tracer.self_times()
        imcis_s = sum(v for k, v in self_times.items() if k.startswith("imcis."))
        outcome.notes.append(
            f"traced wall {wall:.2f} s: imcis.* hold {100 * imcis_s / wall:.1f}%, "
            f"smc.simulate {100 * self_times['smc.simulate'] / wall:.1f}%"
        )
    return outcome


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------


class RequestFeed:
    """The seeded request stream the client threads share.

    The stream comes in blocks. Each block holds one cold request (a seed
    never used before) per (study, estimator) pair and, from the second
    block on, one warm request per pair that repeats the pair's cold
    request of the block before, all shuffled. A warm request's cold
    original was issued a block earlier, so it is normally stored by the
    time it repeats. The stream ends only between blocks, so every run
    serves whole blocks and the same mix; a faster program serves more
    blocks.

    The one-to-one cold:warm ratio and the equal weight of every pair are
    assumptions: no record of real traffic exists. Equal shares give the
    store's write and read paths the same weight and enough samples of
    each for a tail; equal study weights match a ``run_matrix`` sweep.
    The seed draws the cold seeds and the order within each block, not
    the ratio, so every run serves the same mix and the spread between
    runs measures the machine. Runs report the shares they served.
    """

    def __init__(self, seed: int, studies, deadline: float):
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._pending: "deque[tuple[str, dict]]" = deque()
        self._last_cold: "dict[tuple[str, str], dict]" = {}
        self._seeds: "set[int]" = set()
        self._pairs = [(study, est) for study in studies for est in SERVICE_ESTIMATORS]
        self._blocks = 0
        self.deadline = deadline

    def _fill(self) -> None:
        self._blocks += 1
        previous = dict(self._last_cold)
        block = []
        for study, estimator in self._pairs:
            job_seed = self._rng.randrange(1, 2**31)
            while job_seed in self._seeds:
                job_seed = self._rng.randrange(1, 2**31)
            self._seeds.add(job_seed)
            cold = {"study": study, "estimator": estimator, "seed": job_seed, **QUICK}
            self._last_cold[(study, estimator)] = cold
            block.append(("cold", cold))
            if (study, estimator) in previous:
                block.append(("warm", previous[(study, estimator)]))
        self._rng.shuffle(block)
        self._pending.extend(block)

    def next(self) -> "tuple[str, dict] | None":
        """The next request, or ``None`` once the deadline has passed and
        the current block is used up. The first two blocks always run, so
        warm requests are always served."""
        with self._lock:
            if not self._pending:
                if self._blocks >= 2 and time.perf_counter() >= self.deadline:
                    return None
                self._fill()
            return self._pending.popleft()


def _client(base_url: str, feed: RequestFeed, jobs: list) -> None:
    """One closed-loop client: submit, follow the SSE stream to the end,
    fetch the result, repeat."""
    from repro.errors import QueueFullError
    from repro.service.client import ServiceClient

    client = ServiceClient(base_url)
    while True:
        item = feed.next()
        if item is None:
            return
        kind, payload = item
        record = {"kind": kind, "payload": payload, "state": None}
        jobs.append(record)
        started = time.perf_counter()
        try:
            document = client.submit(payload)
        except QueueFullError:
            record["state"] = "rejected"
            continue
        except Exception as error:  # noqa: BLE001 — counted as a failed job
            record["state"] = f"error: {type(error).__name__}: {error}"
            continue
        submitted = time.perf_counter()
        try:
            for event in client.events(document["id"]):
                if event["event"] in ("complete", "failed", "cancelled"):
                    record["state"] = event["event"]
                    break
            finished = time.perf_counter()
            snapshot = client.job(document["id"])
        except Exception as error:  # noqa: BLE001 — counted as a failed job
            record["state"] = f"error: {type(error).__name__}: {error}"
            continue
        record.update(
            id=document["id"],
            deduplicated=document["deduplicated"],
            started=started,
            submitted=submitted,
            finished=finished,
            latency=finished - started,
            csv=(snapshot.get("result") or {}).get("csv"),
        )


def _load_window(
    seed: int, seconds: float, studies, tracer: Tracer, traced: bool, out_dir: Path
):
    """Boot a fresh server over a fresh store and drive it for *seconds*,
    with *tracer* recording while *traced*.

    Returns the jobs, the window's length and, when untraced, the
    :func:`reference` times the otherwise idle main thread took every
    :data:`REFERENCE_PAUSE` seconds while the clients ran. The loop times
    CPU time, so waiting for the GIL held by the program's threads does
    not count: on one booted server its median was 1.45 ms during the
    load against 1.49 ms just before it.
    """
    jobs: "list[dict]" = []
    references: "list[float]" = []
    with booted_server(out_dir) as base_url:
        start = time.perf_counter()
        feed = RequestFeed(seed, studies, start + seconds)
        tracer.active = traced
        try:
            clients = [
                threading.Thread(
                    target=_client, args=(base_url, feed, jobs), name=f"client-{i}"
                )
                for i in range(CLIENTS)
            ]
            for thread in clients:
                thread.start()
            give_up = start + seconds + 120
            running = clients
            while running and time.perf_counter() < give_up:
                if not traced:
                    references.append(reference())
                running[0].join(timeout=REFERENCE_PAUSE)
                running = [thread for thread in running if thread.is_alive()]
            window = time.perf_counter() - start
        finally:
            tracer.active = False
        if running:
            raise RuntimeError("a service client did not finish within 120 s of the window")
    return jobs, window, references


def _shares(jobs: "list[dict]") -> "dict[str, float]":
    """Cold and warm shares of the jobs issued, and the share of submitted
    jobs the server deduplicated onto one it already had."""
    submitted = [job for job in jobs if "id" in job]
    return {
        "cold_share": sum(1 for job in jobs if job["kind"] == "cold") / len(jobs),
        "warm_share": sum(1 for job in jobs if job["kind"] == "warm") / len(jobs),
        "dedup_share": (
            sum(1 for job in submitted if job["deduplicated"]) / len(submitted)
            if submitted else 0.0
        ),
    }


def _job_breakdown(jobs: "list[dict]", tracer: Tracer) -> None:
    """Split the latency of every completed job into its parts.

    Each job is matched with its ``execute_request`` call (same study,
    estimator and seed, overlapping the job), clipped to the job's own
    interval. Queue wait runs from the POST's return until the job worker
    starts the call; HTTP time is the latency left after queue wait and
    execution, so the three sum to the latency exactly and none is
    negative. ``prepare`` is the ``make_study`` time inside the call.
    Stores ``job["parts"]`` with these and the submit round trip.
    """
    calls: "dict[tuple, list[tuple[float, float]]]" = {}
    for key, start, end in tracer.executions:
        calls.setdefault(key, []).append((start, end))
    prepares = [(start, end) for _s, _p, name, start, end, _t in tracer.spans
                if name == "models.prepare"]
    for job in jobs:
        if job["state"] != "complete":
            continue
        payload = job["payload"]
        clipped = [
            (max(start, job["started"]), min(end, job["finished"]))
            for start, end in calls[(payload["study"], payload["estimator"], payload["seed"])]
        ]
        start, end = max(clipped, key=lambda span: span[1] - span[0])
        waited = max(0.0, start - job["submitted"])
        job["parts"] = {
            "submit": job["submitted"] - job["started"],
            "queue_wait": waited,
            "execute": end - start,
            "prepare": sum(e - s for s, e in prepares if start <= s and e <= end),
            "http": job["latency"] - waited - (end - start),
        }


def _latency_stats(jobs: "list[dict]", kind: str) -> "tuple[float, float, float, int]":
    """(p50, tail value, tail percentile, samples) of completed *kind* jobs."""
    values = [job["latency"] for job in jobs if job["kind"] == kind and job["state"] == "complete"]
    if not values:
        raise RuntimeError(f"no {kind} job completed in the load window")
    value, percentile, samples = tail(values)
    return statistics.median(values), value, percentile, samples


def _check_jobs(outcome: Outcome, jobs: "list[dict]") -> None:
    """Every job completes; the first cold job of each estimator is
    byte-identical to ``run_matrix`` in-process; every warm job is
    byte-identical to the cold job it repeats."""
    import repro.experiments.matrix as matrix
    from repro.service.jobs import JobRequest

    bad: "dict[int, str]" = {}
    cold_csv: "dict[int, str]" = {}
    for index, job in enumerate(jobs):
        if job["state"] != "complete":
            bad[index] = f"job {job['payload']} ended as {job['state']}"
        elif job["kind"] == "cold":
            cold_csv[job["payload"]["seed"]] = job["csv"]
    checked: "set[str]" = set()
    for index, job in enumerate(jobs):
        if index in bad:
            continue
        payload = job["payload"]
        if job["kind"] == "cold" and payload["estimator"] not in checked:
            checked.add(payload["estimator"])
            config = JobRequest.from_payload(dict(payload)).to_matrix_config()
            expected = matrix.run_matrix(config).to_csv_text()
            problems = checks.csv_mismatch(f"cold job {payload}", expected, job["csv"])
            outcome.broken += problems
            if problems:
                bad[index] = problems[0]
        elif job["kind"] == "warm" and payload["seed"] in cold_csv:
            problems = checks.csv_mismatch(
                f"warm job {payload}", cold_csv[payload["seed"]], job["csv"]
            )
            outcome.broken += problems
            if problems:
                bad[index] = problems[0]
    outcome.attempted += len(jobs)
    outcome.failed += len(bad)
    outcome.failures += list(bad.values())


def run_service_workload(
    seed: int, seconds: float, trace: bool, tiny: bool, src: Path, out_dir: Path
) -> Outcome:
    """Closed-loop load of two clients on one in-process local-mode server.

    Traced runs drive the same request stream twice, on fresh servers
    and stores: half the time untraced, half traced.
    """
    from repro.models.registry import REGISTRY

    outcome = Outcome()
    studies = TINY_STUDIES if tiny else tuple(REGISTRY.quick_studies())
    tracer = outcome.tracer = Tracer()
    plain_seconds = seconds / 2 if trace else seconds
    jobs, window, references = _load_window(
        seed, plain_seconds, studies, tracer, False, out_dir
    )
    _check_jobs(outcome, jobs)
    completed = [job for job in jobs if job["state"] == "complete"]
    jobs_per_s = len(completed) / window
    cold_p50, cold_tail, cold_pct, cold_n = _latency_stats(jobs, "cold")
    warm_p50, warm_tail, warm_pct, warm_n = _latency_stats(jobs, "warm")
    raw_rate = sum(job["payload"]["repetitions"] for job in completed) / window
    scaled_rate = raw_rate * statistics.median(references) / REFERENCE_S
    outcome.end_to_end = {"reps_per_s": scaled_rate}
    outcome.notes.append(
        f"{raw_rate:.3f} repetitions/s raw, {scaled_rate:.3f} at the reference speed "
        f"(median of {len(references)} reference loops)"
    )
    shares = _shares(jobs)
    outcome.notes.append(
        f"served shares: cold {shares['cold_share']:.3f}, warm {shares['warm_share']:.3f}, "
        f"deduplicated {shares['dedup_share']:.3f}"
    )
    outcome.notes.append(
        f"{len(jobs)} jobs in {window:.2f} s ({jobs_per_s:.2f} jobs/s); "
        f"cold p50 {cold_p50:.4f} s, p{cold_pct:.1f} {cold_tail:.4f} s of {cold_n}; "
        f"warm p50 {warm_p50:.4f} s, p{warm_pct:.1f} {warm_tail:.4f} s of {warm_n}"
    )
    outcome.report.update(
        jobs=len(jobs),
        raw_reps_per_s=raw_rate,
        **shares,
        jobs_per_s=jobs_per_s,
        cold_p50_s=cold_p50,
        cold_tail_s=cold_tail,
        cold_tail_percentile=cold_pct,
        cold_samples=cold_n,
        warm_job_p50_s=warm_p50,
        warm_job_tail_s=warm_tail,
        warm_tail_percentile=warm_pct,
        warm_samples=warm_n,
    )
    if trace:
        undo = instrument(tracer)
        try:
            traced_jobs, traced_window, _ = _load_window(
                seed, seconds - plain_seconds, studies, tracer, True, out_dir
            )
        finally:
            undo()
        _check_jobs(outcome, traced_jobs)
        traced_done = [job for job in traced_jobs if job["state"] == "complete"]
        worker = {span[5] for span in tracer.spans if span[2] == "service.execute"}
        outcome.layers = layer_metrics(tracer, traced_window, worker.pop() if worker else -1)
        _job_breakdown(traced_jobs, tracer)
        parts = [job["parts"] for job in traced_jobs if "parts" in job]
        outcome.layers.update(
            {
                "service.submit_s": sum(part["submit"] for part in parts),
                "service.queue_wait_s": sum(part["queue_wait"] for part in parts),
                "service.execute_s": tracer.self_times()["service.execute"],
                "service.http_s": sum(part["http"] for part in parts),
                "service.dedup_ratio": _shares(traced_jobs)["dedup_share"],
                "service.rejected": sum(1 for job in traced_jobs if job["state"] == "rejected"),
                "service.jobs_per_s": jobs_per_s,
                "service.warm_job_p50_s": warm_p50,
                "service.warm_job_tail_s": warm_tail,
                "obs.trace_overhead_ratio": jobs_per_s / (len(traced_done) / traced_window),
                "latency.cold_p50_s": cold_p50,
                "latency.cold_tail_s": cold_tail,
            }
        )
        outcome.report["traced_jobs"] = len(traced_jobs)
        for kind in ("cold", "warm"):
            done = [job for job in traced_jobs if job["kind"] == kind and "parts" in job]
            cut = tail([job["latency"] for job in done])[0]
            for label, group in (("all", done), ("tail", [j for j in done if j["latency"] >= cut])):
                medians = {name: statistics.median(job["parts"][name] for job in group)
                           for name in group[0]["parts"]}
                outcome.report[f"traced_{kind}_{label}_median_parts_s"] = medians
                outcome.notes.append(
                    f"traced {kind} jobs ({label}, {len(group)}), median parts (s): "
                    + ", ".join(f"{name} {value:.4f}" for name, value in medians.items())
                )
    _digest_check(outcome, SERVICE_ESTIMATORS, src, out_dir, "service-mixed")
    return outcome


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool, src: Path, out_dir: Path
) -> Outcome:
    """Dispatch to the named workload."""
    if workload == "service-mixed":
        return run_service_workload(seed, seconds, trace, tiny, src, out_dir)
    return run_matrix_workload(workload, seed, seconds, trace, tiny, src, out_dir)
