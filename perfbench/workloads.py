"""The four benchmark workloads.

Each workload is a closed loop with one caller: it builds its inputs from
the seed in :meth:`setup`, and then the harness repeats
``prepare`` (untimed) → ``run`` (timed) → ``check`` (untimed).  The
program receives only the generated inputs; every call goes through the
layers' public functions.

* ``plan-cold`` — one cold :meth:`RepositoryReplicationPolicy.run` on a
  fresh clone of a cut-down Table 1 universe (storage 0.6, processing
  0.6, repository 0.7).
* ``evaluate-replay`` — one 20k-request trace replayed through
  ``simulate_allocation`` and ``simulate_lru`` on a Table 1 universe.
* ``replan-drift`` — one drift epoch: ``replace_frequencies`` plus
  ``IncrementalReplanner.replan``; every fourth epoch is an audit.
* ``offload-negotiate`` — the ``plan-cold`` op on small universes whose
  servers have processing slack but no space, so OFF_LOADING runs the
  L2 swap.

With tracing on, ``run`` records a span around every layer call (and,
for ``plan-cold``/``offload-negotiate``, drives the policy's phases itself
in ``policy._run``'s order); :func:`layer_metrics` turns the spans and
counts into the per-layer metrics.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

import numpy as np

import repro.core.policy as policy_mod
import repro.dynamic.incremental as incremental_mod
from repro.core.constraints import evaluate_constraints, repository_load
from repro.core.partition import partition_all
from repro.core.policy import PolicyResult, RepositoryReplicationPolicy
from repro.core.restoration import (
    ProcessingRestorationStats,
    StorageRestorationStats,
    restore_processing_capacity,
    restore_storage_capacity,
)
from repro.core.offload import offload_repository
from repro.core.verify import verify_allocation
from repro.dynamic.drift import replace_frequencies
from repro.dynamic.incremental import IncrementalConfig, IncrementalReplanner
from repro.experiments.scaling import (
    clone_with_capacities,
    processing_capacities_for_fraction,
    repo_capacity_for_fraction,
    storage_capacities_for_fraction,
)
from repro.simulation.engine import simulate_allocation
from repro.simulation.lru_sim import simulate_lru
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams
from repro.workload.trace import generate_trace

#: Perturbation seed of every replay, so replays of one plan are paired.
PERTURB_SEED = 2

PLAN_PHASES = (
    "partition",
    "storage-restoration",
    "processing-restoration",
    "off-loading",
)


class CheckFailed(AssertionError):
    """An op's output failed a correctness check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def subseed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the run seed and ``path``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


#: Table 1 with pages and objects cut twentyfold: 10 servers of 30 pages,
#: 150 objects per server out of 750, Table 1's links per page.  A full
#: Table 1 solve takes 6-11 s on a 2-core box, and the box has slow
#: phases of 10-20 s, so a run could only time one or two of them; this
#: one takes about 0.3 s, and a run times each of its universes five or
#: more times, far enough apart that at least one lands in a fast phase.
#: Page and object counts are fixed (the middle of Table 1's ranges, cut
#: down) so that op times compare across seeds: one solve's time varies
#: about 10% from universe to universe, and the mean over a run's
#: universes 3%.
TWENTIETH = WorkloadParams.paper().with_(
    pages_per_server=(30, 30), n_objects=750, objects_per_server=(150, 150)
)

#: The small preset's pages and links on Table 1's 10 servers, with fixed
#: counts as in :data:`TWENTIETH` (60 pages and 275 of 1,200 objects per
#: server).
SMALL10 = WorkloadParams.small().with_(
    n_servers=10, pages_per_server=(60, 60), objects_per_server=(275, 275)
)


def params_for(cls, scale: str) -> WorkloadParams:
    """The workload's universe for the benchmark, or the small preset
    for the smoke tests."""
    if scale == "bench":
        return cls.bench_params
    if scale == "smoke":
        return WorkloadParams.small().with_(requests_per_server=200)
    raise ValueError(f"unknown scale {scale!r}")


# ----------------------------------------------------------------------
# layer calls with counts
# ----------------------------------------------------------------------
def traced_call(tr, name: str, fn, *args, **kwargs):
    """Call ``fn`` inside span ``name`` and record the counts its result
    carries (a no-op pass-through on an untraced run)."""
    result = tr.call(name, fn, *args, **kwargs)
    if not tr.enabled:
        return result
    if name == "partition":
        ids = kwargs.get("page_ids")
        tr.count("partition.pages", args[0].n_pages if ids is None else len(ids))
    elif name == "constraints":
        tr.count("constraints.calls")
    elif name == "restoration.storage":
        tr.count("restoration.storage_evictions", result.evictions)
        tr.count(
            "restoration.storage_repartitioned_pages", result.repartitioned_pages
        )
    elif name == "restoration.processing":
        tr.count("restoration.processing_switches", result.switches)
        tr.count("restoration.processing_deallocations", result.deallocations)
    elif name == "offload":
        capacity = kwargs.get("capacity")
        if capacity is None:
            capacity = args[0].model.repository.processing_capacity
        tr.count("offload.rounds", result.rounds)
        tr.count("offload.messages", result.messages)
        if result.initial_repo_load > capacity:
            tr.count("offload.excess", result.initial_repo_load - capacity)
            tr.count("offload.absorbed", result.total_absorbed)
    return result


def drive_phases(
    policy: RepositoryReplicationPolicy, model, tr
) -> PolicyResult:
    """``policy._run`` for the batched kernel, one span per layer call."""
    kernel = policy.kernel
    cost = traced_call(tr, "context.build", policy.cost_model, model)
    tr.count("context.entries", len(cost.ctx.comp_objects) + len(cost.ctx.opt_objects))
    alloc = traced_call(
        tr,
        "partition",
        partition_all,
        model,
        optional_policy=policy.optional_policy,
        kernel=kernel,
    )
    unconstrained = traced_call(tr, "cost.D", cost.D, alloc)
    phases = ["partition"]
    report = traced_call(tr, "constraints", evaluate_constraints, alloc)
    storage_stats = StorageRestorationStats()
    if not report.storage_ok:
        storage_stats = traced_call(
            tr, "restoration.storage", restore_storage_capacity,
            alloc, cost, kernel=kernel,
        )
        phases.append("storage-restoration")
        report = traced_call(tr, "constraints", evaluate_constraints, alloc)
    processing_stats = ProcessingRestorationStats()
    if not report.local_ok:
        processing_stats = traced_call(
            tr, "restoration.processing", restore_processing_capacity,
            alloc, cost, kernel=kernel,
        )
        phases.append("processing-restoration")
        report = traced_call(tr, "constraints", evaluate_constraints, alloc)
    outcome = None
    if not report.repo_ok:
        outcome = traced_call(
            tr, "offload", offload_repository,
            alloc, cost, policy.offload_config, kernel=kernel,
        )
        phases.append("off-loading")
        report = traced_call(tr, "constraints", evaluate_constraints, alloc)
    objective = traced_call(tr, "cost.D", cost.D, alloc)
    return PolicyResult(
        allocation=alloc,
        objective=objective,
        constraints=report,
        storage_stats=storage_stats,
        processing_stats=processing_stats,
        offload_outcome=outcome,
        unconstrained_objective=unconstrained,
        phases_run=phases,
    )


@contextmanager
def traced_modules(tr, targets):
    """Route ``module.attr`` through :func:`traced_call` for a block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    for (mod, attr, name), (_, _, orig) in zip(targets, saved):
        setattr(mod, attr, functools.partial(traced_call, tr, name, orig))
    try:
        yield
    finally:
        for mod, attr, orig in saved:
            setattr(mod, attr, orig)


def replay_quality(alloc, params: WorkloadParams, seed: int) -> dict:
    """Page times of ``alloc`` on one fixed trace and perturbation seed."""
    trace = generate_trace(alloc.model, params, seed=subseed(seed, 99))
    sim = simulate_allocation(alloc, trace, seed=PERTURB_SEED)
    return {
        "page_time_mean_s": sim.mean_page_time,
        "page_time_p95_s": sim.percentile_page_time(95),
    }


def plan_snapshot(alloc, objective: float):
    return (
        objective,
        alloc.comp_local.copy(),
        alloc.opt_local.copy(),
        [frozenset(r) for r in alloc.replicas],
    )


def same_snapshot(a, b) -> bool:
    return (
        a[0] == b[0]
        and np.array_equal(a[1], b[1])
        and np.array_equal(a[2], b[2])
        and a[3] == b[3]
    )


# ----------------------------------------------------------------------
# plan-cold and offload-negotiate
# ----------------------------------------------------------------------
class PlanWorkload:
    """One cold policy solve per op, cycling over ``universes`` universes
    generated from the seed (a run's mean then spans several inputs)."""

    name = ""
    universes = 1
    #: phases every op must run
    required_phases: tuple[str, ...] = PLAN_PHASES

    def __init__(self, params: WorkloadParams, seed: int):
        self.params = params
        self.seed = seed
        self.policy = RepositoryReplicationPolicy(
            alpha1=params.alpha1, alpha2=params.alpha2
        )
        self.min_ops = self.universes
        #: per universe: the first checked plan, which every later op must
        #: reproduce bit for bit (traced ops included)
        self.expected: dict[int, tuple] = {}
        self.first_result: dict[int, PolicyResult] = {}

    def capacities(self, model, reference, tr):
        raise NotImplementedError

    def setup(self, tr) -> None:
        self.worlds = []
        for u in range(self.universes):
            with tr.span("workload.generate"):
                model = generate_workload(
                    self.params.with_(storage_capacity=np.inf),
                    seed=subseed(self.seed, u),
                )
            with tr.span("setup.capacities"):
                reference = partition_all(model)
                caps = self.capacities(model, reference, tr)
            self.worlds.append((model, caps))

    def prepare(self, i: int):
        u = i % self.universes
        model, (storage, processing, repo) = self.worlds[u]
        clone = clone_with_capacities(
            model, storage=storage, processing=processing, repo_capacity=repo
        )
        return u, clone

    def run(self, prep, tr):
        _, clone = prep
        if tr.enabled:
            return drive_phases(self.policy, clone, tr)
        return self.policy.run(clone)

    def check(self, prep, result: PolicyResult) -> None:
        u, clone = prep
        alloc = result.allocation
        snap = plan_snapshot(alloc, result.objective)
        if u in self.expected:
            # a repeat must be bit-identical to the first solve, which
            # passed every check below
            require(
                same_snapshot(snap, self.expected[u]),
                f"universe {u}: plan differs from its first solve",
            )
            return
        cost = self.policy.cost_model(clone)
        rep = verify_allocation(alloc, cost=cost)
        require(rep.passed, "; ".join(rep.failures))
        report = evaluate_constraints(alloc)
        require(report.local_ok, "Eq. 8 violated at exit")
        require(report.storage_ok, "Eq. 10 violated at exit")
        require(
            result.objective == cost.D(alloc),
            f"objective {result.objective!r} != CostModel.D",
        )
        require(
            set(self.required_phases) <= set(result.phases_run)
            and result.phases_run[0] == "partition",
            f"phases_run {result.phases_run}",
        )
        self.expected[u] = snap
        self.first_result[u] = result

    def quality(self) -> dict:
        result = self.first_result[0]
        alloc = result.allocation
        out = replay_quality(alloc, self.params, self.seed)
        out["objective_D"] = result.objective
        out["repo_load_ratio"] = (
            repository_load(alloc) / alloc.model.repository.processing_capacity
        )
        return out


class PlanCold(PlanWorkload):
    name = "plan-cold"
    bench_params = TWENTIETH
    universes = 12

    def capacities(self, model, reference, tr):
        return (
            storage_capacities_for_fraction(model, reference, 0.6),
            processing_capacities_for_fraction(model, 0.6, reference),
            repo_capacity_for_fraction(reference, 0.7),
        )


class OffloadNegotiate(PlanWorkload):
    name = "offload-negotiate"
    #: at Table 1 size one solve spends minutes in the L2 swap; on the
    #: small preset's links with 30 pages and 140 of 1,200 objects per
    #: server it takes about 0.3 s
    bench_params = SMALL10.with_(pages_per_server=(30, 30), objects_per_server=(140, 140))
    universes = 12
    required_phases = ("partition", "storage-restoration", "off-loading")

    def capacities(self, model, reference, tr):
        storage = storage_capacities_for_fraction(model, reference, 0.6)
        processing = processing_capacities_for_fraction(model, 0.8)
        with tr.span("setup.repo_solve"):
            pre = self.policy.run(
                clone_with_capacities(model, storage=storage, processing=processing)
            )
        return storage, processing, 0.9 * repository_load(pre.allocation)


# ----------------------------------------------------------------------
# evaluate-replay
# ----------------------------------------------------------------------
class EvaluateReplay:
    """One trace replayed under the unconstrained PARTITION plan (Figure
    1's "optimised" point) and through per-server LRU caches holding 0.6
    of the plan's replica bytes.  The run cycles over ``traces`` traces
    on each of ``universes`` universes drawn from the seed."""

    name = "evaluate-replay"
    #: Table 1 with page and object counts fixed at the middle of its
    #: ranges (as in :data:`TWENTIETH`); each trace holds 2,000 page requests
    #: per server
    bench_params = WorkloadParams.paper().with_(
        pages_per_server=(600, 600),
        objects_per_server=(3000, 3000),
        requests_per_server=2000,
    )
    universes = 2
    traces = 2
    min_ops = universes * traces
    cache_fraction = 0.6

    def __init__(self, params: WorkloadParams, seed: int):
        self.params = params
        self.seed = seed
        self.first: dict[int, tuple] = {}

    def setup(self, tr) -> None:
        self.worlds = []
        for u in range(self.universes):
            with tr.span("workload.generate"):
                model = generate_workload(
                    self.params.with_(storage_capacity=np.inf), seed=subseed(self.seed, u)
                )
            with tr.span("setup.plan"):
                plan = partition_all(model)
                cache = self.cache_fraction * plan.stored_bytes_all()
            for t in range(self.traces):
                with tr.span("workload.trace"):
                    trace = generate_trace(model, self.params, seed=subseed(self.seed, u, 1, t))
                _, entries = trace.comp_expansion(model.comp_indptr)
                accesses = len(entries) + trace.n_optional_downloads
                self.worlds.append((model, plan, cache, trace, accesses))

    def prepare(self, i: int):
        k = i % self.min_ops
        return k, self.worlds[k]

    def run(self, prep, tr):
        _, (_, plan, cache, trace, _) = prep
        replay = traced_call(
            tr, "replay", simulate_allocation, plan, trace, seed=PERTURB_SEED
        )
        lru, stats = traced_call(
            tr, "lru", simulate_lru, trace, cache, seed=PERTURB_SEED
        )
        if tr.enabled:
            tr.count("replay.requests", replay.n_requests)
            tr.count("lru.requests", lru.n_requests)
            tr.count("lru.hits", stats.hits)
            tr.count("lru.accesses", stats.hits + stats.misses)
        return replay, lru, stats

    def check(self, prep, out) -> None:
        t, (_, _, _, trace, accesses) = prep
        replay, lru, stats = out
        n = trace.n_requests
        for label, sim in (("replay", replay), ("lru", lru)):
            require(sim.n_requests == n, f"{label}: {sim.n_requests} requests, trace has {n}")
            times = sim.page_times
            require(
                np.all(np.isfinite(times)) and np.all(times > 0), f"{label}: bad page time"
            )
        require(
            stats.hits + stats.misses == accesses,
            f"lru: {stats.hits + stats.misses} accesses, trace has {accesses}",
        )
        require(0.0 <= stats.hit_rate <= 1.0, f"lru hit rate {stats.hit_rate}")
        digest = (replay.mean_page_time, lru.mean_page_time, stats.hits)
        first = self.first.setdefault(t, (digest, replay))
        require(digest == first[0], f"trace {t}: replay differs from its first op")

    def quality(self) -> dict:
        replay = self.first[0][1]
        model, plan = self.worlds[0][:2]
        return {
            "objective_D": RepositoryReplicationPolicy(
                alpha1=self.params.alpha1, alpha2=self.params.alpha2
            ).cost_model(model).D(plan),
            "page_time_mean_s": replay.mean_page_time,
            "page_time_p95_s": replay.percentile_page_time(95),
            "repo_load_ratio": 0.0,
        }


# ----------------------------------------------------------------------
# replan-drift
# ----------------------------------------------------------------------
def rotate_hot(freqs: np.ndarray, page_ids: np.ndarray, rng) -> np.ndarray:
    """Swap half of one server's hottest 10% of pages with cold pages."""
    out = freqs.copy()
    f = out[page_ids]
    n_hot = max(1, int(np.ceil(0.10 * len(page_ids))))
    order = np.argsort(-f, kind="stable")
    hot, cold = page_ids[order[:n_hot]], page_ids[order[n_hot:]]
    n_swap = min(max(1, n_hot // 2), len(cold))
    a = rng.choice(hot, size=n_swap, replace=False)
    b = rng.choice(cold, size=n_swap, replace=False)
    out[a], out[b] = out[b].copy(), out[a].copy()
    return out


class ReplanDrift:
    """Drift epochs from epoch-0 plans.

    Each of ``universes`` universes gets an epoch-0 plan and one audit
    cycle of drift: ``audit_every - 1`` incremental epochs and then an
    audit epoch, each rotating one more server's hot set.  The run
    repeats the cycles, each restarting from its epoch-0 plan.
    """

    name = "replan-drift"
    bench_params = SMALL10
    universes = 8

    def __init__(self, params: WorkloadParams, seed: int):
        self.params = params
        self.seed = seed
        self.policy = RepositoryReplicationPolicy(
            alpha1=params.alpha1, alpha2=params.alpha2
        )
        self.config = IncrementalConfig()
        self.cycle = self.config.audit_every
        self.min_ops = self.cycle * self.universes
        self.expected: dict[int, tuple] = {}
        self.final = None
        self.traced_stats: list = []

    def setup(self, tr) -> None:
        self.worlds = []
        for u in range(self.universes):
            with tr.span("workload.generate"):
                base = generate_workload(
                    self.params.with_(storage_capacity=np.inf), seed=subseed(self.seed, u)
                )
            with tr.span("setup.capacities"):
                reference = partition_all(base)
                model = clone_with_capacities(
                    base,
                    storage=storage_capacities_for_fraction(base, reference, 0.6),
                    processing=processing_capacities_for_fraction(base, 0.6, reference),
                )
            with tr.span("setup.epoch0_solve"):
                alloc0 = self.policy.run(model).allocation
            rng = np.random.default_rng(subseed(self.seed, u, 2))
            freqs, epochs = model.frequencies, []
            for _ in range(self.cycle):
                server = int(rng.integers(model.n_servers))
                ids = np.asarray(model.pages_by_server[server], dtype=np.intp)
                freqs = rotate_hot(freqs, ids, rng)
                epochs.append(freqs)
            self.worlds.append((model, alloc0, epochs))

    def prepare(self, i: int):
        e = i % self.min_ops
        model0, alloc0, epochs = self.worlds[e // self.cycle]
        if e % self.cycle == 0:
            self.replanner = IncrementalReplanner(
                self.policy, model0, self.config, initial_allocation=alloc0.copy()
            )
        return e, epochs[e % self.cycle]

    def run(self, prep, tr):
        _, freqs = prep
        new_model = tr.call(
            "drift.replace", replace_frequencies, self.replanner.model, freqs
        )
        if not tr.enabled:
            return self.replanner.replan(new_model)
        targets = [
            (incremental_mod, "partition_pages_batched", "partition"),
            (incremental_mod, "evaluate_constraints", "constraints"),
            (incremental_mod, "restore_storage_capacity", "restoration.storage"),
            (incremental_mod, "restore_processing_capacity", "restoration.processing"),
            (incremental_mod, "offload_repository", "offload"),
            (policy_mod, "partition_all", "partition"),
            (policy_mod, "evaluate_constraints", "constraints"),
            (policy_mod, "restore_storage_capacity", "restoration.storage"),
            (policy_mod, "restore_processing_capacity", "restoration.processing"),
            (policy_mod, "offload_repository", "offload"),
        ]
        with traced_modules(tr, targets):
            stats = tr.call("incremental.replan", self.replanner.replan, new_model)
        self.traced_stats.append(stats)
        return stats

    def check(self, prep, stats) -> None:
        e, _ = prep
        rp = self.replanner
        snap = plan_snapshot(rp.allocation, stats.objective)
        if e in self.expected:
            # a repeat must be bit-identical to the epoch's first run,
            # which passed every check below
            require(
                same_snapshot(snap, self.expected[e]),
                f"epoch {e}: plan differs from its first run",
            )
            return
        exact = self.policy.cost_model(rp.model).D(rp.allocation)
        require(stats.objective == exact, f"ReplanStats.objective {stats.objective!r} != D {exact!r}")
        if stats.audit_gap is not None:
            adopted = stats.mode == "full"
            require(
                adopted == (stats.audit_gap > self.config.gap_threshold),
                f"audit gap {stats.audit_gap} with mode {stats.mode}",
            )
        report = evaluate_constraints(rp.allocation)
        require(report.local_ok and report.storage_ok, "Eq. 8/10 violated after replan")
        self.expected[e] = snap
        if e == self.cycle - 1:
            self.final = (rp.allocation, stats.objective)

    def quality(self) -> dict:
        alloc, objective = self.final
        out = replay_quality(alloc, self.params, self.seed)
        out["objective_D"] = objective
        out["repo_load_ratio"] = 0.0
        return out


WORKLOADS = {
    w.name: w for w in (PlanCold, EvaluateReplay, ReplanDrift, OffloadNegotiate)
}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: name -> unit, in report order; every workload reports every name
#: (0 where the layer does no work on that workload).
PER_LAYER = {
    "workload.generate_s": "s",
    "workload.trace_s": "s",
    "context.build_s": "s",
    "context.entries": "count",
    "drift.replace_s": "s",
    "partition.s": "s",
    "partition.pages": "count",
    "constraints.s": "s",
    "constraints.calls": "count",
    "cost.D_s": "s",
    "restoration.storage_s": "s",
    "restoration.storage_evictions": "count",
    "restoration.storage_repartitioned_pages": "count",
    "restoration.storage_us_per_eviction": "us",
    "restoration.processing_s": "s",
    "restoration.processing_switches": "count",
    "restoration.processing_deallocations": "count",
    "restoration.processing_us_per_switch": "us",
    "offload.s": "s",
    "offload.rounds": "count",
    "offload.messages": "count",
    "offload.absorbed_share": "ratio",
    "replay.s": "s",
    "replay.requests": "count",
    "replay_req_per_s": "1/s",
    "lru.s": "s",
    "lru.requests": "count",
    "lru.hit_rate": "ratio",
    "lru_req_per_s": "1/s",
    "incremental.epoch_s": "s",
    "incremental.audit_s": "s",
    "incremental.dirty_pages": "count",
    "incremental.rebuilt_servers": "count",
    "incremental.full_resolves": "count",
    "incremental.incremental_share": "ratio",
    "incremental.audit_gap_max": "ratio",
    "quality.objective_D": "D",
    "quality.page_time_mean_s": "s",
    "quality.page_time_p95_s": "s",
    "quality.repo_load_ratio": "ratio",
    "trace.overhead_share": "ratio",
    "trace.coverage": "ratio",
    "op_tail_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(wl, tr, n_traced: int, setup_reps: int, quality: dict) -> dict:
    """Per-layer values: op-span times and counts per traced op, set-up
    spans per set-up repetition."""
    per_op = lambda name: tr.seconds(name) / n_traced  # noqa: E731
    count = lambda name: tr.counts.get(name, 0.0) / n_traced  # noqa: E731
    v = {
        "workload.generate_s": tr.seconds("workload.generate", op_only=False) / setup_reps,
        "workload.trace_s": tr.seconds("workload.trace", op_only=False) / setup_reps,
        "context.build_s": per_op("context.build"),
        "context.entries": count("context.entries"),
        "drift.replace_s": per_op("drift.replace"),
        "partition.s": per_op("partition"),
        "partition.pages": count("partition.pages"),
        "constraints.s": per_op("constraints"),
        "constraints.calls": count("constraints.calls"),
        "cost.D_s": per_op("cost.D"),
        "restoration.storage_s": per_op("restoration.storage"),
        "restoration.storage_evictions": count("restoration.storage_evictions"),
        "restoration.storage_repartitioned_pages": count(
            "restoration.storage_repartitioned_pages"
        ),
        "restoration.processing_s": per_op("restoration.processing"),
        "restoration.processing_switches": count("restoration.processing_switches"),
        "restoration.processing_deallocations": count(
            "restoration.processing_deallocations"
        ),
        "offload.s": per_op("offload"),
        "offload.rounds": count("offload.rounds"),
        "offload.messages": count("offload.messages"),
        "offload.absorbed_share": _ratio(
            tr.counts.get("offload.absorbed", 0.0), tr.counts.get("offload.excess", 0.0)
        ),
        "replay.s": per_op("replay"),
        "replay.requests": count("replay.requests"),
        "lru.s": per_op("lru"),
        "lru.requests": count("lru.requests"),
        "lru.hit_rate": _ratio(tr.counts.get("lru.hits", 0.0), tr.counts.get("lru.accesses", 0.0)),
    }
    v["restoration.storage_us_per_eviction"] = 1e6 * _ratio(
        v["restoration.storage_s"], v["restoration.storage_evictions"]
    )
    v["restoration.processing_us_per_switch"] = 1e6 * _ratio(
        v["restoration.processing_s"], v["restoration.processing_switches"]
    )
    v["replay_req_per_s"] = _ratio(v["replay.requests"], v["replay.s"])
    v["lru_req_per_s"] = _ratio(v["lru.requests"], v["lru.s"])

    epochs = getattr(wl, "traced_stats", [])
    replans = [
        s["end"] - s["start"] for s in tr.spans if s["name"] == "incremental.replan"
    ]
    audits = [t for t, st in zip(replans, epochs) if st.audit_gap is not None]
    plain = [t for t, st in zip(replans, epochs) if st.audit_gap is None]
    v["incremental.epoch_s"] = _ratio(sum(plain), len(plain))
    v["incremental.audit_s"] = _ratio(sum(audits), len(audits))
    v["incremental.dirty_pages"] = _ratio(sum(st.n_dirty for st in epochs), len(epochs))
    v["incremental.rebuilt_servers"] = _ratio(
        sum(len(st.rebuilt_servers) for st in epochs), len(epochs)
    )
    v["incremental.full_resolves"] = float(sum(st.mode == "full" for st in epochs))
    v["incremental.incremental_share"] = _ratio(
        sum(st.mode == "incremental" for st in epochs), len(epochs)
    )
    v["incremental.audit_gap_max"] = max(
        (st.audit_gap for st in epochs if st.audit_gap is not None), default=0.0
    )
    for key in ("objective_D", "page_time_mean_s", "page_time_p95_s", "repo_load_ratio"):
        v[f"quality.{key}"] = float(quality[key])
    return v
