"""The wave-based Spark execution engine.

``SparkSimulator`` evaluates a full configuration dictionary against one
workload-input pair on one cluster.  Per stage it computes three
partially-overlapping resource components (CPU, disk, network) plus
scheduling overheads, applies memory verdicts (spill / GC / OOM), and sums
stages into a job duration with multiplicative measurement noise.

Design notes (see DESIGN.md §5): the model is *mechanistic*, not fitted —
every term corresponds to a real Spark cost channel, so configuration
effects compose the way they do on hardware: e.g. raising
``spark.executor.instances`` only helps once the YARN NodeManager budget
admits the containers, and extra parallelism degrades HDD throughput
unless the stream buffers grow too.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.cluster.disk import disk_seconds
from repro.cluster.hardware import ClusterSpec
from repro.cluster.hdfs import HdfsModel
from repro.cluster.memory import MemoryModel
from repro.cluster.network import broadcast_seconds, shuffle_network_seconds
from repro.cluster.yarn import ExecutorPlacement, plan_executors
from repro.sim.codecs import codec_profile, serializer_profile
from repro.sim.faults import (
    TASK_MAX_FAILURES,
    YARN_HANG_SECONDS,
    YARN_REJECT_SECONDS,
    StageFailure,
    oom_attempt_charge,
    vmem_kill_penalty,
)
from repro.sim.result import ExecutionResult, StageResult
from repro.telemetry.context import NULL_CONTEXT
from repro.utils.stats import lognormal_noise_factor
from repro.workloads.base import DatasetSpec, StageSpec, Workload

__all__ = ["SparkSimulator"]

#: fixed application-master + driver + context startup cost
JOB_SETUP_SECONDS = 7.0
#: per-stage DAG-scheduler bookkeeping
STAGE_SETUP_SECONDS = 0.35
#: serial driver-side dispatch cost per task (divided by sqrt(driver cores))
TASK_DISPATCH_SECONDS = 0.006
#: executor-side launch/deserialize latency per wave
WAVE_LAUNCH_SECONDS = 0.12
#: CPU cost of re-parsing data evicted from the RDD cache
CACHE_REPARSE_CPU_PER_MB = 0.015
#: CPU cost of spill serialization per spilled MB
SPILL_CPU_PER_MB = 0.006
#: fraction of non-critical-path resource time not hidden by overlap
OVERLAP_RESIDUE = 0.35


class SparkSimulator:
    """Evaluate configurations for one (workload, dataset, cluster) triple.

    Parameters
    ----------
    workload, dataset:
        What runs.  ``dataset`` may be a label ("D1") or a spec.
    cluster:
        The hardware (CLUSTER_A by default at call sites).
    rng:
        Generator for measurement noise and straggler draws.
    noise_sigma:
        Lognormal sigma of run-to-run measurement noise (0 disables).
    """

    def __init__(
        self,
        workload: Workload,
        dataset: DatasetSpec | str,
        cluster: ClusterSpec,
        rng: np.random.Generator,
        noise_sigma: float = 0.10,
    ):
        if noise_sigma < 0:
            raise ValueError("noise_sigma cannot be negative")
        self.workload = workload
        self.dataset = (
            workload.dataset(dataset) if isinstance(dataset, str) else dataset
        )
        self.cluster = cluster
        self.noise_sigma = noise_sigma
        self._rng = rng
        self._stages = workload.stages(self.dataset)
        self._default_duration: float | None = None
        self.evaluation_count = 0
        #: attach a RunContext (e.g. via TuningEnv.attach_telemetry) to
        #: trace per-evaluation spans and fault-injection counters
        self.telemetry = NULL_CONTEXT
        #: optional :class:`~repro.faults.injector.FaultInjector` applied
        #: to every evaluation (set by TuningEnv after the default
        #: duration is cached, so the baseline itself is never faulted)
        self.fault_injector = None

    # ------------------------------------------------------------------ API

    def evaluate(self, config: Mapping[str, Any]) -> ExecutionResult:
        """Run the workload once under ``config`` and return the result."""
        with self.telemetry.span(
            "sim.evaluate", workload=self.workload.code
        ) as span:
            result = self._evaluate(config)
            if self.fault_injector is not None and self.fault_injector.enabled:
                result, injected = self.fault_injector.perturb_result(result)
                if injected:
                    span.set_attr("faults", ",".join(injected))
                    for kind in injected:
                        self.telemetry.count(
                            "faults.injected_total",
                            help="stochastic chaos injections by kind",
                            kind=kind,
                        )
            span.set_attr("success", result.success)
            span.set_attr("simulated_s", round(result.duration_s, 3))
        return result

    def evaluate_batch(
        self, vectors: np.ndarray, space, apply_faults: bool = True
    ) -> list[ExecutionResult]:
        """Evaluate ``n`` normalized vectors through the vectorized path.

        Row ``i`` is bit-identical to ``evaluate(space.decode(vectors[i]))``
        under the same generator state; see :mod:`repro.sim.batch`.
        """
        from repro.sim.batch import evaluate_batch

        return evaluate_batch(self, vectors, space, apply_faults=apply_faults)

    def _evaluate(self, config: Mapping[str, Any]) -> ExecutionResult:
        t = self.telemetry
        self.evaluation_count += 1
        t.count("sim.evaluations_total", help="simulated configuration runs")
        placement = plan_executors(config, self.cluster)
        if not placement.feasible:
            burnt = YARN_HANG_SECONDS if placement.hangs else YARN_REJECT_SECONDS
            t.count(
                "sim.faults_total",
                help="injected faults by kind",
                kind="yarn-hang" if placement.hangs else "yarn-reject",
            )
            t.event(
                "sim-fault", fault="yarn-rejection", reason=placement.reason,
                burnt_s=float(burnt),
            )
            return ExecutionResult(
                duration_s=burnt,
                success=False,
                failure_reason=f"YARN rejection: {placement.reason}",
                cpu_demand_per_node=np.full(self.cluster.n_nodes, 0.1),
            )

        noise = lognormal_noise_factor(self._rng, self.noise_sigma)
        try:
            stages, duration, cpu_core_s = self._run_stages(config, placement)
        except StageFailure as failure:
            duration = (JOB_SETUP_SECONDS + failure.burnt_seconds) * noise
            t.count(
                "sim.faults_total",
                help="injected faults by kind",
                kind="stage-failure",
            )
            t.event(
                "sim-fault", fault="stage-failure", stage=failure.stage_name,
                reason=failure.reason, burnt_s=float(duration),
            )
            return ExecutionResult(
                duration_s=float(duration),
                success=False,
                failure_reason=failure.reason,
                cpu_demand_per_node=self._demand(placement, 0.5),
                n_executors=placement.n_executors,
                executor_cores=placement.executor_cores,
                executor_heap_mb=placement.executor_heap_mb,
            )

        duration = (JOB_SETUP_SECONDS + duration) * noise
        utilization = min(
            cpu_core_s / max(duration * self.cluster.total_cores, 1e-9), 1.0
        )
        return ExecutionResult(
            duration_s=float(duration),
            success=True,
            stages=tuple(stages),
            cpu_demand_per_node=self._demand(placement, utilization),
            n_executors=placement.n_executors,
            executor_cores=placement.executor_cores,
            executor_heap_mb=placement.executor_heap_mb,
        )

    def default_duration(self, space) -> float:
        """Noise-free duration under the framework defaults (cached)."""
        if self._default_duration is None:
            saved, self.noise_sigma = self.noise_sigma, 0.0
            try:
                result = self.evaluate(space.defaults())
            finally:
                self.noise_sigma = saved
            if not result.success:
                raise RuntimeError(
                    "default configuration failed on the simulator: "
                    f"{result.failure_reason}"
                )
            self._default_duration = result.duration_s
        return self._default_duration

    # ------------------------------------------------------------ internals

    def _demand(
        self, placement: ExecutorPlacement, utilization: float
    ) -> np.ndarray:
        """Average runnable threads per node for the state tracker."""
        nodes_used = min(placement.n_executors, self.cluster.n_nodes)
        demand = np.full(self.cluster.n_nodes, 0.05 * self.cluster.node.cores)
        if nodes_used:
            busy = utilization * placement.total_cores / nodes_used
            demand[:nodes_used] += busy
        return demand

    def _run_stages(
        self, config: Mapping[str, Any], placement: ExecutorPlacement
    ) -> tuple[list[StageResult], float, float]:
        memory = MemoryModel(
            config, placement.executor_heap_mb, placement.executor_cores
        )
        hdfs = HdfsModel(config, self.cluster)
        results: list[StageResult] = []
        elapsed = 0.0
        total_cpu_core_s = 0.0
        t = self.telemetry
        for stage in self._stages:
            res = self._simulate_stage(stage, config, placement, memory, hdfs)
            if res.oom:
                burnt = elapsed + oom_attempt_charge(res.seconds)
                raise StageFailure(
                    stage.name,
                    f"executor OOM in stage {stage.name!r} after "
                    f"{TASK_MAX_FAILURES} task attempts",
                    burnt,
                )
            results.append(res)
            elapsed += res.seconds
            total_cpu_core_s += res.cpu_seconds * placement.total_cores
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
        return results, elapsed, total_cpu_core_s

    def _simulate_stage(
        self,
        stage: StageSpec,
        config: Mapping[str, Any],
        placement: ExecutorPlacement,
        memory: MemoryModel,
        hdfs: HdfsModel,
    ) -> StageResult:
        cluster = self.cluster
        node = cluster.node
        serializer = serializer_profile(config["spark.serializer"])
        codec = codec_profile(config["spark.io.compression.codec"])
        shuffle_compress = bool(config["spark.shuffle.compress"])
        spill_compress = bool(config["spark.shuffle.spill.compress"])
        parallelism = int(config["spark.default.parallelism"])
        shuffle_buffer_kb = float(config["spark.shuffle.file.buffer"])
        io_buffer_kb = float(config["io.file.buffer.size"])
        max_in_flight = float(config["spark.reducer.maxSizeInFlight"])
        bypass_threshold = int(
            config["spark.shuffle.sort.bypassMergeThreshold"]
        )
        speculation = bool(config["spark.speculation"])
        locality_wait = float(config["spark.locality.wait"])
        driver_cores = int(config["spark.driver.cores"])

        # ---- task geometry ------------------------------------------------
        if stage.reads_hdfs or stage.inherits_input_partitions:
            n_tasks = hdfs.input_splits(stage.input_mb)
        else:
            n_tasks = max(1, parallelism)
        # Executor threads beyond the physical cores just contend.
        slots = max(min(placement.total_cores, cluster.total_cores), 1)
        waves = int(np.ceil(n_tasks / slots))
        active_slots = min(n_tasks, slots)
        conc_per_node = max(
            1, int(np.ceil(active_slots / cluster.n_nodes))
        )
        per_task_mb = stage.input_mb / n_tasks

        # ---- memory verdict -----------------------------------------------
        per_exec_cache_mb = (
            stage.cache_demand_mb / placement.n_executors
            if stage.cache_demand_mb
            else 0.0
        )
        working_set_mb = (
            per_task_mb * stage.memory_expansion * serializer.deser_expansion
        )
        verdict = memory.evaluate_task(
            working_set_mb, per_exec_cache_mb,
            rigid_fraction=stage.rigid_memory_fraction,
        )
        if verdict.oom:
            # Charge an estimated clean-stage time for the retry accounting.
            approx = (
                stage.input_mb * stage.cpu_per_mb / slots
                + stage.input_mb / (node.disk_seq_mbps * cluster.n_nodes)
            )
            return StageResult(
                name=stage.name, seconds=float(approx), n_tasks=n_tasks,
                waves=waves, cpu_seconds=0.0, disk_seconds=0.0,
                network_seconds=0.0, overhead_seconds=0.0,
                spill_fraction=verdict.spill_fraction,
                gc_multiplier=verdict.gc_multiplier,
                cache_deficit=verdict.storage_deficit,
                oom=True, attempts=TASK_MAX_FAILURES,
            )

        spill_mb = verdict.spill_fraction * stage.input_mb
        deficit_read_mb = (
            verdict.storage_deficit * stage.input_mb
            if (stage.cache_demand_mb and not stage.reads_hdfs)
            else 0.0
        )

        # ---- shuffle byte sizes -------------------------------------------
        shuffle_ratio = codec.ratio if shuffle_compress else 1.0
        shuffle_out_wire_mb = (
            stage.shuffle_write_mb * serializer.size_factor * shuffle_ratio
        )
        shuffle_in_wire_mb = (
            0.0
            if stage.reads_hdfs
            else stage.input_mb * serializer.size_factor * shuffle_ratio
        )
        spill_ratio = codec.ratio if spill_compress else 1.0
        spill_wire_mb = spill_mb * serializer.size_factor * spill_ratio

        # ---- sort bypass ---------------------------------------------------
        bypass = stage.sortish and n_tasks <= bypass_threshold
        sort_cpu_factor = 0.85 if bypass else 1.0
        # Bypass writes one file per reducer: many more concurrent streams.
        shuffle_write_streams = conc_per_node * (3 if bypass else 1)

        # ---- CPU component -------------------------------------------------
        ser_heavy = (
            stage.shuffle_write_mb > 0
            or not stage.reads_hdfs
            or stage.cache_demand_mb > 0
        )
        cpu_core_s = (
            stage.input_mb
            * stage.cpu_per_mb
            * sort_cpu_factor
            * (serializer.cpu_factor if ser_heavy else 1.0)
            / cluster.scale_cpu()
        )
        if shuffle_compress:
            cpu_core_s += (
                stage.shuffle_write_mb * serializer.size_factor
                * codec.compress_cpu_per_mb
            )
            if not stage.reads_hdfs:
                cpu_core_s += (
                    stage.input_mb * serializer.size_factor
                    * codec.decompress_cpu_per_mb
                )
        cpu_core_s += spill_mb * SPILL_CPU_PER_MB
        cpu_core_s += deficit_read_mb * CACHE_REPARSE_CPU_PER_MB
        if speculation:
            cpu_core_s *= 1.04  # duplicate speculative work
        cpu_core_s *= verdict.gc_multiplier
        # Wave quantization: each wave takes one per-task CPU time, so the
        # stage's CPU component is per-task CPU x number of waves (equals
        # cpu_core_s / slots when n_tasks divides evenly into slots).
        cpu_time = (cpu_core_s / n_tasks) * waves

        # ---- disk component (per-node bound) -------------------------------
        disk_time = 0.0
        if stage.reads_hdfs:
            disk_time += hdfs.read_seconds(stage.input_mb, conc_per_node)
        if deficit_read_mb:
            disk_time += hdfs.read_seconds(deficit_read_mb, conc_per_node)
        if shuffle_out_wire_mb:
            disk_time += disk_seconds(
                shuffle_out_wire_mb / cluster.n_nodes,
                node, shuffle_write_streams, shuffle_buffer_kb,
            )
        if shuffle_in_wire_mb:
            disk_time += disk_seconds(
                shuffle_in_wire_mb / cluster.n_nodes,
                node, conc_per_node, io_buffer_kb,
            )
        if spill_wire_mb:
            disk_time += disk_seconds(
                2.0 * spill_wire_mb / cluster.n_nodes,  # write + read back
                node, conc_per_node, shuffle_buffer_kb,
            )
        if stage.hdfs_write_mb:
            disk_time += hdfs.write_seconds(stage.hdfs_write_mb, conc_per_node)

        # ---- network component ----------------------------------------------
        net_time = 0.0
        if shuffle_in_wire_mb:
            net_time += shuffle_network_seconds(
                shuffle_in_wire_mb, cluster, max_in_flight
            )
        if stage.broadcast_mb:
            net_time += broadcast_seconds(
                stage.broadcast_mb, cluster,
                float(config["spark.broadcast.blockSize"]),
            )
        # Executors on fewer nodes than the data: remote HDFS reads.
        nodes_used = min(placement.n_executors, cluster.n_nodes)
        remote_frac = 1.0 - nodes_used / cluster.n_nodes
        if stage.reads_hdfs and remote_frac > 0:
            net_time += (
                stage.input_mb * remote_frac / cluster.network_mbps
            )

        # ---- scheduling overheads -------------------------------------------
        overhead = STAGE_SETUP_SECONDS
        overhead += n_tasks * TASK_DISPATCH_SECONDS / np.sqrt(driver_cores)
        overhead += waves * WAVE_LAUNCH_SECONDS
        if stage.reads_hdfs and remote_frac > 0:
            # The scheduler waits out the locality timeout before running
            # tasks remotely.
            overhead += locality_wait * remote_frac * min(waves, 3)

        # ---- combine with partial overlap -------------------------------------
        components = np.array([cpu_time, disk_time, net_time])
        critical = float(components.max())
        residue = float(components.sum() - critical)
        stage_time = critical + OVERLAP_RESIDUE * residue + overhead

        # ---- stragglers / speculation -----------------------------------------
        tail = float(self._rng.exponential(0.10))
        if speculation:
            tail *= 0.35
        stage_time *= 1.0 + tail

        # ---- YARN vmem monitor --------------------------------------------------
        stage_time *= vmem_kill_penalty(
            float(config["yarn.nodemanager.vmem-pmem-ratio"]),
            serializer.deser_expansion,
        ).penalty_factor

        return StageResult(
            name=stage.name,
            seconds=float(stage_time),
            n_tasks=n_tasks,
            waves=waves,
            cpu_seconds=float(cpu_time),
            disk_seconds=float(disk_time),
            network_seconds=float(net_time),
            overhead_seconds=float(overhead),
            spill_fraction=verdict.spill_fraction,
            gc_multiplier=verdict.gc_multiplier,
            cache_deficit=verdict.storage_deficit,
        )
