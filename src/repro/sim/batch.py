"""Vectorized batch evaluation for :class:`~repro.sim.engine.SparkSimulator`.

The analytic stage model is deterministic given a configuration; only the
measurement noise and straggler tails are stochastic.  That split drives
the batch design:

1. **pass 1 (vectorized, no RNG)** — decode the candidate matrix into
   typed columns, plan YARN placements for all candidates at once, and
   broadcast the per-stage CPU/disk/network/overhead math over the
   candidate axis.  OOM verdicts are configuration-only, so the stage at
   which each candidate fails (if any) is known before any draw.
2. **pass 2 (sequential RNG + assembly)** — walk candidates in order,
   drawing exactly the variates the scalar path would (one noise factor
   per feasible candidate, one straggler tail per completed stage,
   nothing for YARN-rejected candidates or the OOM stage itself), and
   assemble :class:`~repro.sim.result.StageResult` /
   :class:`~repro.sim.result.ExecutionResult` records.

Every arithmetic expression mirrors the scalar engine's operation order,
so row ``i`` of ``evaluate_batch`` is bit-identical to a sequential
``evaluate`` under the same generator state (pinned by the determinism
suite).  The two scalar-``**`` sites (fetch-pipelining efficiency, GC
occupancy curve) stay Python-float ``pow`` per element because numpy's
array ``**`` is not bit-identical to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.cluster.yarn import plan_executors_batch
from repro.sim.codecs import codec_profile, serializer_profile
from repro.sim.faults import (
    TASK_MAX_FAILURES,
    YARN_HANG_SECONDS,
    YARN_REJECT_SECONDS,
    oom_attempt_charge,
    vmem_kill_penalty,
)
from repro.sim.result import ExecutionResult, StageResult
from repro.utils.stats import lognormal_noise_factor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config.space import ConfigurationSpace
    from repro.sim.engine import SparkSimulator

__all__ = ["evaluate_batch", "evaluate_population"]

# log2(512/16): normalization constant of the disk buffer-quality curve.
_BUFFER_QUALITY_DENOM = float(np.log2(512.0 / 16.0))


def _profile_columns(col: np.ndarray, getter, attrs: tuple[str, ...]):
    """Expand a categorical column into per-attribute float columns."""
    out = {a: np.empty(col.shape, dtype=np.float64) for a in attrs}
    for name in np.unique(col):
        profile = getter(str(name))
        mask = col == name
        for a in attrs:
            out[a][mask] = getattr(profile, a)
    return out


class _ClusterVecModels:
    """Per-candidate disk/HDFS/network rate helpers (feasible subset)."""

    def __init__(self, cluster, cols: Mapping[str, np.ndarray], sel):
        from repro.utils.stats import saturating

        self.cluster = cluster
        self.node = cluster.node
        self.blocksize = cols["dfs.blocksize"][sel].astype(np.float64)
        self.replication = cols["dfs.replication"][sel].astype(np.int64)
        self.io_buffer_kb = cols["io.file.buffer.size"][sel].astype(
            np.float64
        )
        nn = cols["dfs.namenode.handler.count"][sel].astype(np.float64)
        dn = cols["dfs.datanode.handler.count"][sel].astype(np.float64)
        nn_capacity = np.array([saturating(float(x), 120.0) for x in nn])
        dn_capacity = np.array([saturating(float(x), 60.0) for x in dn])
        self.rpc_capacity = np.minimum(nn_capacity * 4.0, dn_capacity * 6.0)

    def input_splits(self, input_mb: float) -> np.ndarray:
        return np.maximum(
            1, np.ceil(input_mb / self.blocksize).astype(np.int64)
        )

    def disk_rate(self, streams: np.ndarray, buffer_kb) -> np.ndarray:
        quality = np.clip(
            np.log2(buffer_kb / 16.0) / _BUFFER_QUALITY_DENOM, 0.0, 1.0
        )
        interference = (streams - 1) * (0.30 - 0.22 * quality)
        floor = self.node.disk_rand_mbps / self.node.disk_seq_mbps
        share = np.maximum(floor, 1.0 / (1.0 + interference))
        return self.node.disk_seq_mbps * share

    def disk_seconds(self, mb, streams, buffer_kb) -> np.ndarray:
        return mb / self.disk_rate(streams, buffer_kb)

    def _rpc_slowdown(self, clients: np.ndarray) -> np.ndarray:
        return np.where(
            clients <= self.rpc_capacity,
            1.0,
            1.0 + 0.12 * (clients / self.rpc_capacity - 1.0),
        )

    def hdfs_read_seconds(self, mb, streams: np.ndarray) -> np.ndarray:
        per_node_mb = mb / self.cluster.n_nodes
        rate = self.disk_rate(streams, self.io_buffer_kb)
        base = per_node_mb / rate
        return base * self._rpc_slowdown(streams * self.cluster.n_nodes)

    def hdfs_write_seconds(self, mb, streams: np.ndarray) -> np.ndarray:
        disk_mb_per_node = mb * self.replication / self.cluster.n_nodes
        rate = self.disk_rate(streams, self.io_buffer_kb)
        disk_time = disk_mb_per_node / rate
        net_mb_per_node = (
            mb * np.maximum(self.replication - 1, 0) / self.cluster.n_nodes
        )
        net_time = net_mb_per_node / self.cluster.network_mbps
        return np.maximum(disk_time, net_time) * self._rpc_slowdown(
            streams * self.cluster.n_nodes
        )


def evaluate_batch(
    sim: "SparkSimulator",
    vectors: np.ndarray,
    space: "ConfigurationSpace",
    apply_faults: bool = True,
) -> list[ExecutionResult]:
    """Evaluate ``n`` normalized configuration vectors in one pass.

    Returns one :class:`ExecutionResult` per row, bit-identical to
    ``[sim.evaluate(space.decode(v)) for v in vectors]`` under the same
    generator state.  ``apply_faults=False`` skips the fault injector so
    a caller interleaving other fault-stream draws (the environment's
    ``step_batch``) can apply it per step itself.
    """
    from repro.sim.engine import (
        CACHE_REPARSE_CPU_PER_MB,
        JOB_SETUP_SECONDS,
        OVERLAP_RESIDUE,
        SPILL_CPU_PER_MB,
        STAGE_SETUP_SECONDS,
        TASK_DISPATCH_SECONDS,
        WAVE_LAUNCH_SECONDS,
    )

    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != space.dim:
        raise ValueError(
            f"expected shape (n, {space.dim}), got {mat.shape}"
        )
    n = mat.shape[0]
    if n == 0:
        return []

    t = sim.telemetry
    cluster = sim.cluster
    node = cluster.node
    stages = sim._stages

    with t.span("sim.evaluate_batch", workload=sim.workload.code, n=n):
        cols = space.decode_columns(mat)
        placement = plan_executors_batch(cols, cluster)
        feasible = placement.feasible
        fi = np.flatnonzero(feasible)
        k = fi.size

        plan = _stage_plan(
            sim, cols, placement, fi, cluster, node, stages,
            CACHE_REPARSE_CPU_PER_MB, SPILL_CPU_PER_MB, OVERLAP_RESIDUE,
            STAGE_SETUP_SECONDS, TASK_DISPATCH_SECONDS, WAVE_LAUNCH_SECONDS,
        ) if k else None

        # position of candidate j within the feasible subset
        pos = np.full(n, -1, dtype=np.int64)
        pos[fi] = np.arange(k)

        results: list[ExecutionResult] = []
        for j in range(n):
            sim.evaluation_count += 1
            t.count(
                "sim.evaluations_total", help="simulated configuration runs"
            )
            pl = placement.row(j)
            if not pl.feasible:
                results.append(_infeasible_result(sim, pl, t))
                continue
            results.append(
                _assemble_feasible(
                    sim, pl, plan, int(pos[j]), stages, t,
                    JOB_SETUP_SECONDS,
                )
            )

        if apply_faults and (
            sim.fault_injector is not None and sim.fault_injector.enabled
        ):
            for j, result in enumerate(results):
                perturbed, injected = sim.fault_injector.perturb_result(
                    result
                )
                if injected:
                    for kind in injected:
                        t.count(
                            "faults.injected_total",
                            help="stochastic chaos injections by kind",
                            kind=kind,
                        )
                results[j] = perturbed
    return results


def evaluate_population(
    sims: "list[SparkSimulator]",
    vectors: np.ndarray,
    space: "ConfigurationSpace",
) -> list[ExecutionResult]:
    """Evaluate one vector per simulator through a single analytic pass.

    ``sims[j]`` evaluates ``vectors[j]``.  All simulators must share the
    same workload, dataset, and cluster, so the deterministic pass-1
    stage math (:func:`_stage_plan` never touches per-sim state) is
    computed once for the whole population; pass 2 walks rows in order
    drawing each simulator's *own* RNG stream and counting against its
    own telemetry, exactly as a scalar ``sims[j].evaluate`` would.
    Faults are never applied here — each caller interleaves its
    environment's fault stream per session (see
    ``VectorTuningEnv.step``).

    Row ``j`` is bit-identical to ``sims[j].evaluate(space.decode(
    vectors[j]))`` under the same per-sim generator states.
    """
    from repro.sim.engine import (
        CACHE_REPARSE_CPU_PER_MB,
        JOB_SETUP_SECONDS,
        OVERLAP_RESIDUE,
        SPILL_CPU_PER_MB,
        STAGE_SETUP_SECONDS,
        TASK_DISPATCH_SECONDS,
        WAVE_LAUNCH_SECONDS,
    )

    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != space.dim:
        raise ValueError(
            f"expected shape (n, {space.dim}), got {mat.shape}"
        )
    n = mat.shape[0]
    if len(sims) != n:
        raise ValueError(
            f"got {len(sims)} simulators for {n} vectors"
        )
    if n == 0:
        return []
    lead = sims[0]
    for sim in sims[1:]:
        if (
            sim.workload.code != lead.workload.code
            or sim.dataset.label != lead.dataset.label
            or sim.cluster != lead.cluster
        ):
            raise ValueError(
                "population simulators must share workload/dataset/cluster"
            )

    cluster = lead.cluster
    node = cluster.node
    stages = lead._stages
    t0 = lead.telemetry

    with t0.span(
        "sim.evaluate_population", workload=lead.workload.code, n=n
    ):
        cols = space.decode_columns(mat)
        placement = plan_executors_batch(cols, cluster)
        fi = np.flatnonzero(placement.feasible)
        k = fi.size

        plan = _stage_plan(
            lead, cols, placement, fi, cluster, node, stages,
            CACHE_REPARSE_CPU_PER_MB, SPILL_CPU_PER_MB, OVERLAP_RESIDUE,
            STAGE_SETUP_SECONDS, TASK_DISPATCH_SECONDS, WAVE_LAUNCH_SECONDS,
        ) if k else None

        pos = np.full(n, -1, dtype=np.int64)
        pos[fi] = np.arange(k)

        results: list[ExecutionResult] = []
        for j in range(n):
            sim = sims[j]
            t = sim.telemetry
            sim.evaluation_count += 1
            t.count(
                "sim.evaluations_total", help="simulated configuration runs"
            )
            pl = placement.row(j)
            if not pl.feasible:
                results.append(_infeasible_result(sim, pl, t))
                continue
            results.append(
                _assemble_feasible(
                    sim, pl, plan, int(pos[j]), stages, t,
                    JOB_SETUP_SECONDS,
                )
            )
    return results


def _infeasible_result(sim, pl, t) -> ExecutionResult:
    burnt = YARN_HANG_SECONDS if pl.hangs else YARN_REJECT_SECONDS
    t.count(
        "sim.faults_total",
        help="injected faults by kind",
        kind="yarn-hang" if pl.hangs else "yarn-reject",
    )
    t.event(
        "sim-fault", fault="yarn-rejection", reason=pl.reason,
        burnt_s=float(burnt),
    )
    return ExecutionResult(
        duration_s=burnt,
        success=False,
        failure_reason=f"YARN rejection: {pl.reason}",
        cpu_demand_per_node=np.full(sim.cluster.n_nodes, 0.1),
    )


class _StagePlan:
    """Pass-1 output: per-stage candidate-axis arrays (feasible subset)."""

    __slots__ = ("per_stage", "speculation", "vmem_factor")

    def __init__(self, per_stage, speculation, vmem_factor):
        self.per_stage = per_stage
        self.speculation = speculation
        self.vmem_factor = vmem_factor


def _stage_plan(
    sim, cols, placement, fi, cluster, node, stages,
    cache_reparse_cpu, spill_cpu, overlap_residue,
    stage_setup_s, task_dispatch_s, wave_launch_s,
) -> _StagePlan:
    """Vectorize the per-stage analytic model over the feasible subset."""
    k = fi.size
    heap = placement.executor_heap_mb[fi]
    cores = placement.executor_cores[fi]
    n_exec = placement.n_executors[fi]
    total_cores = placement.total_cores[fi]
    if np.any(heap <= 0) or np.any(cores <= 0):
        raise ValueError("executor heap and cores must be positive")

    # -- per-candidate config columns (feasible subset) ---------------------
    ser = _profile_columns(
        cols["spark.serializer"][fi], serializer_profile,
        ("cpu_factor", "size_factor", "deser_expansion"),
    )
    codec = _profile_columns(
        cols["spark.io.compression.codec"][fi], codec_profile,
        ("ratio", "compress_cpu_per_mb", "decompress_cpu_per_mb"),
    )
    shuffle_compress = cols["spark.shuffle.compress"][fi]
    spill_compress = cols["spark.shuffle.spill.compress"][fi]
    parallelism = cols["spark.default.parallelism"][fi].astype(np.int64)
    shuffle_buffer_kb = cols["spark.shuffle.file.buffer"][fi].astype(
        np.float64
    )
    max_in_flight = cols["spark.reducer.maxSizeInFlight"][fi].astype(
        np.float64
    )
    bypass_threshold = cols[
        "spark.shuffle.sort.bypassMergeThreshold"
    ][fi].astype(np.int64)
    speculation = cols["spark.speculation"][fi]
    locality_wait = cols["spark.locality.wait"][fi]
    driver_cores = cols["spark.driver.cores"][fi].astype(np.int64)
    broadcast_block = cols["spark.broadcast.blockSize"][fi].astype(
        np.float64
    )
    mem_fraction = cols["spark.memory.fraction"][fi]
    storage_fraction = cols["spark.memory.storageFraction"][fi]
    vmem_ratio = cols["yarn.nodemanager.vmem-pmem-ratio"][fi]

    models = _ClusterVecModels(cluster, cols, fi)
    scale_cpu = cluster.scale_cpu()

    # -- unified memory regions (MemoryModel, vectorized) -------------------
    usable = np.maximum(heap.astype(np.float64) - 300.0, 1.0)
    unified = usable * mem_fraction
    base_exec = unified * (1.0 - storage_fraction)
    borrowable = unified * storage_fraction * 0.5
    exec_region = base_exec + borrowable
    storage_region = unified * storage_fraction
    user_region = usable * (1.0 - mem_fraction)
    share = exec_region / cores
    hard_limit = exec_region + 0.5 * user_region

    # Scalar-pow sites: numpy's array ``**`` is not bit-identical to
    # Python float pow, so these stay per-element.
    efficiency = np.array(
        [
            float(np.clip(m / 48.0, 0.15, 1.0)) ** 0.35
            for m in max_in_flight
        ],
        dtype=np.float64,
    )
    vmem_factor = np.array(
        [
            vmem_kill_penalty(float(r), float(d)).penalty_factor
            for r, d in zip(vmem_ratio, ser["deser_expansion"])
        ],
        dtype=np.float64,
    )

    slots = np.maximum(np.minimum(total_cores, cluster.total_cores), 1)
    nodes_used = np.minimum(n_exec, cluster.n_nodes)
    remote_frac = 1.0 - nodes_used / cluster.n_nodes
    latency_s = cluster.network_latency_ms / 1000.0

    per_stage = []
    for stage in stages:
        # ---- task geometry ------------------------------------------------
        if stage.reads_hdfs or stage.inherits_input_partitions:
            n_tasks = models.input_splits(stage.input_mb)
        else:
            n_tasks = np.maximum(1, parallelism)
        waves = np.ceil(n_tasks / slots).astype(np.int64)
        active_slots = np.minimum(n_tasks, slots)
        conc_per_node = np.maximum(
            1, np.ceil(active_slots / cluster.n_nodes).astype(np.int64)
        )
        per_task_mb = stage.input_mb / n_tasks

        # ---- memory verdict -----------------------------------------------
        per_exec_cache = (
            stage.cache_demand_mb / n_exec
            if stage.cache_demand_mb
            else np.zeros(k)
        )
        working_set = (
            per_task_mb * stage.memory_expansion * ser["deser_expansion"]
        )
        oom = working_set * stage.rigid_memory_fraction > hard_limit
        spill_fraction = np.zeros(k)
        over = working_set > share
        spill_fraction[over] = (
            (working_set[over] - share[over]) / working_set[over]
        )
        storage_deficit = np.zeros(k)
        cached = per_exec_cache > 0
        if cached.any():
            fits = np.minimum(per_exec_cache[cached], storage_region[cached])
            storage_deficit[cached] = 1.0 - fits / per_exec_cache[cached]
        live = np.minimum(working_set, share) * cores + np.minimum(
            per_exec_cache, storage_region
        )
        occupancy = np.minimum(live / usable, 1.0)
        gc_multiplier = np.fromiter(
            (1.0 + 2.2 * float(o) ** 3.5 for o in occupancy),
            dtype=np.float64, count=k,
        )
        hot = mem_fraction > 0.78
        gc_multiplier[hot] += 2.0 * (mem_fraction[hot] - 0.78)

        input_cpu = stage.input_mb * stage.cpu_per_mb
        approx = input_cpu / slots + stage.input_mb / (
            node.disk_seq_mbps * cluster.n_nodes
        )

        spill_mb = spill_fraction * stage.input_mb
        use_deficit = stage.cache_demand_mb and not stage.reads_hdfs
        deficit_read_mb = (
            storage_deficit * stage.input_mb if use_deficit else np.zeros(k)
        )

        # ---- shuffle byte sizes -------------------------------------------
        shuffle_ratio = np.where(shuffle_compress, codec["ratio"], 1.0)
        shuffle_out_wire = (
            stage.shuffle_write_mb * ser["size_factor"] * shuffle_ratio
        )
        shuffle_in_wire = (
            np.zeros(k)
            if stage.reads_hdfs
            else stage.input_mb * ser["size_factor"] * shuffle_ratio
        )
        spill_ratio = np.where(spill_compress, codec["ratio"], 1.0)
        spill_wire = spill_mb * ser["size_factor"] * spill_ratio

        # ---- sort bypass ---------------------------------------------------
        if stage.sortish:
            bypass = n_tasks <= bypass_threshold
        else:
            bypass = np.zeros(k, dtype=bool)
        sort_cpu_factor = np.where(bypass, 0.85, 1.0)
        shuffle_write_streams = conc_per_node * np.where(bypass, 3, 1)

        # ---- CPU component -------------------------------------------------
        ser_heavy = (
            stage.shuffle_write_mb > 0
            or not stage.reads_hdfs
            or stage.cache_demand_mb > 0
        )
        cpu_core_s = input_cpu * sort_cpu_factor
        if ser_heavy:
            cpu_core_s = cpu_core_s * ser["cpu_factor"]
        cpu_core_s = cpu_core_s / scale_cpu
        sc = shuffle_compress
        if sc.any():
            add = (
                stage.shuffle_write_mb * ser["size_factor"]
                * codec["compress_cpu_per_mb"]
            )
            cpu_core_s[sc] += add[sc]
            if not stage.reads_hdfs:
                add = (
                    stage.input_mb * ser["size_factor"]
                    * codec["decompress_cpu_per_mb"]
                )
                cpu_core_s[sc] += add[sc]
        cpu_core_s += spill_mb * spill_cpu
        cpu_core_s += deficit_read_mb * cache_reparse_cpu
        spec = speculation
        cpu_core_s[spec] *= 1.04
        cpu_core_s *= gc_multiplier
        cpu_time = (cpu_core_s / n_tasks) * waves

        # ---- disk component (per-node bound) -------------------------------
        disk_time = np.zeros(k)
        if stage.reads_hdfs:
            disk_time += models.hdfs_read_seconds(
                stage.input_mb, conc_per_node
            )
        if use_deficit:
            disk_time += models.hdfs_read_seconds(
                deficit_read_mb, conc_per_node
            )
        if stage.shuffle_write_mb:
            disk_time += models.disk_seconds(
                shuffle_out_wire / cluster.n_nodes,
                shuffle_write_streams, shuffle_buffer_kb,
            )
        if not stage.reads_hdfs and stage.input_mb:
            disk_time += models.disk_seconds(
                shuffle_in_wire / cluster.n_nodes,
                conc_per_node, models.io_buffer_kb,
            )
        disk_time += models.disk_seconds(
            2.0 * spill_wire / cluster.n_nodes,
            conc_per_node, shuffle_buffer_kb,
        )
        if stage.hdfs_write_mb:
            disk_time += models.hdfs_write_seconds(
                stage.hdfs_write_mb, conc_per_node
            )

        # ---- network component --------------------------------------------
        net_time = np.zeros(k)
        if (
            not stage.reads_hdfs
            and stage.input_mb
            and cluster.n_nodes > 1
        ):
            cross_mb = shuffle_in_wire * (cluster.n_nodes - 1) / cluster.n_nodes
            per_node_mb = cross_mb / cluster.n_nodes
            bandwidth = cluster.network_mbps * efficiency
            rounds = np.maximum(
                1, np.ceil(per_node_mb / max_in_flight).astype(np.int64)
            )
            net_time += per_node_mb / bandwidth + rounds * latency_s
        if stage.broadcast_mb:
            blocks = np.maximum(1.0, stage.broadcast_mb / broadcast_block)
            net_time += (
                stage.broadcast_mb / cluster.network_mbps
                + blocks * latency_s
            )
        remote = remote_frac > 0
        if stage.reads_hdfs and remote.any():
            add = stage.input_mb * remote_frac / cluster.network_mbps
            net_time[remote] += add[remote]

        # ---- scheduling overheads -----------------------------------------
        overhead = np.full(k, stage_setup_s)
        overhead += n_tasks * task_dispatch_s / np.sqrt(driver_cores)
        overhead += waves * wave_launch_s
        if stage.reads_hdfs and remote.any():
            add = locality_wait * remote_frac * np.minimum(waves, 3)
            overhead[remote] += add[remote]

        # ---- combine with partial overlap ---------------------------------
        components = np.stack([cpu_time, disk_time, net_time], axis=1)
        critical = components.max(axis=1)
        residue = components.sum(axis=1) - critical
        stage_pre = critical + overlap_residue * residue + overhead

        per_stage.append(
            {
                "n_tasks": n_tasks,
                "waves": waves,
                "pre": stage_pre,
                "cpu_time": cpu_time,
                "disk_time": disk_time,
                "net_time": net_time,
                "overhead": overhead,
                "spill_fraction": spill_fraction,
                "gc_multiplier": gc_multiplier,
                "storage_deficit": storage_deficit,
                "oom": oom,
                "approx": approx,
            }
        )
    return _StagePlan(per_stage, speculation, vmem_factor)


def _assemble_feasible(
    sim, pl, plan: _StagePlan, p: int, stages, t, job_setup_s,
) -> ExecutionResult:
    """Pass 2 for one feasible candidate: draw RNG, build result records."""
    noise = lognormal_noise_factor(sim._rng, sim.noise_sigma)
    speculation = bool(plan.speculation[p])
    vmem = float(plan.vmem_factor[p])
    results: list[StageResult] = []
    elapsed = 0.0
    total_cpu_core_s = 0.0
    for stage, arrs in zip(stages, plan.per_stage):
        if arrs["oom"][p]:
            approx = float(arrs["approx"][p])
            burnt = elapsed + oom_attempt_charge(approx)
            duration = (job_setup_s + burnt) * noise
            reason = (
                f"executor OOM in stage {stage.name!r} after "
                f"{TASK_MAX_FAILURES} task attempts"
            )
            t.count(
                "sim.faults_total",
                help="injected faults by kind",
                kind="stage-failure",
            )
            t.event(
                "sim-fault", fault="stage-failure", stage=stage.name,
                reason=reason, burnt_s=float(duration),
            )
            return ExecutionResult(
                duration_s=float(duration),
                success=False,
                failure_reason=reason,
                cpu_demand_per_node=sim._demand(pl, 0.5),
                n_executors=pl.n_executors,
                executor_cores=pl.executor_cores,
                executor_heap_mb=pl.executor_heap_mb,
            )
        tail = float(sim._rng.exponential(0.10))
        if speculation:
            tail *= 0.35
        stage_time = float(arrs["pre"][p]) * (1.0 + tail)
        stage_time *= vmem
        res = StageResult(
            name=stage.name,
            seconds=float(stage_time),
            n_tasks=int(arrs["n_tasks"][p]),
            waves=int(arrs["waves"][p]),
            cpu_seconds=float(arrs["cpu_time"][p]),
            disk_seconds=float(arrs["disk_time"][p]),
            network_seconds=float(arrs["net_time"][p]),
            overhead_seconds=float(arrs["overhead"][p]),
            spill_fraction=float(arrs["spill_fraction"][p]),
            gc_multiplier=float(arrs["gc_multiplier"][p]),
            cache_deficit=float(arrs["storage_deficit"][p]),
        )
        results.append(res)
        elapsed += res.seconds
        total_cpu_core_s += res.cpu_seconds * pl.total_cores
        t.observe(
            "sim.stage_seconds",
            res.seconds,
            help="simulated per-stage duration",
            stage=stage.name,
        )
        t.event(
            "sim-stage",
            stage=stage.name,
            seconds=float(res.seconds),
            waves=res.waves,
            spill_fraction=float(res.spill_fraction),
        )
    duration = (job_setup_s + elapsed) * noise
    utilization = min(
        total_cpu_core_s / max(duration * sim.cluster.total_cores, 1e-9),
        1.0,
    )
    return ExecutionResult(
        duration_s=float(duration),
        success=True,
        stages=tuple(results),
        cpu_demand_per_node=sim._demand(pl, utilization),
        n_executors=pl.n_executors,
        executor_cores=pl.executor_cores,
        executor_heap_mb=pl.executor_heap_mb,
    )
