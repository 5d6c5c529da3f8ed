"""Seed -> workload inputs.

The program under test receives only what these functions return: the
application and kernel subsets of a sweep, and the serve job mix.  Every
draw goes through ``random.Random(f"{workload}:{seed}")``, whose string
seeding is stable across processes and Python hash seeds, so one seed
always yields the same inputs.

CPU subsets are stratified: memory-bound applications
(``mem_intensity >= 0.5``: fft, radix, canneal, streamcluster) and
ILP-bound ones are drawn separately, so both behaviours are present in
every run.  They are also cost-balanced: only subsets whose summed host
cost (:data:`APP_COST`) lies within :data:`COST_TOLERANCE` of the median
subset cost are eligible, so different seeds ask for similar work and the
run-to-run spread measures the program rather than the draw.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from itertools import combinations

from repro.core.configs import CPU_MAIN_CONFIGS, GPU_MAIN_CONFIGS
from repro.workloads.gpu_profiles import GPU_KERNELS
from repro.workloads.profiles import CPU_APPS

#: Seed used while the benchmark was written and for committed digests.
DEFAULT_SEED = 0
#: Seed kept back for confirming a claimed gain on unseen inputs.
HELD_OUT_SEED = 1009

#: Measured-window + warm-up instructions per CPU cell in every workload.
INSTRUCTIONS = 4_000

MEMORY_BOUND_INTENSITY = 0.5

#: Host seconds one application adds to a paper pass (Figures 7, 13 and
#: 14 over that app alone, cold trace cache, 4k instructions): the fastest
#: of three interleaved repetitions on a 2-core x86-64 container.  Used
#: only to balance subsets; a stale weight changes which subsets qualify,
#: never a result.
APP_COST = {
    "barnes": 1.013, "cholesky": 1.191, "fft": 1.488, "fmm": 1.055,
    "lu": 0.871, "radiosity": 1.006, "radix": 2.145, "raytrace": 1.183,
    "water-nsq": 0.792, "water-sp": 0.857, "blackscholes": 0.704,
    "canneal": 2.26, "streamcluster": 2.084, "fluidanimate": 1.078,
}
#: Largest relative distance from the median subset cost a subset may
#: have (2+2 apps: 41 of the 270 subsets are eligible).
COST_TOLERANCE = 0.02


def memory_bound_apps() -> "list[str]":
    return sorted(
        name for name, p in CPU_APPS.items()
        if p.mem_intensity >= MEMORY_BOUND_INTENSITY
    )


def ilp_bound_apps() -> "list[str]":
    return sorted(
        name for name, p in CPU_APPS.items()
        if p.mem_intensity < MEMORY_BOUND_INTENSITY
    )


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def balanced_apps(rng: random.Random, n_memory: int, n_ilp: int) -> "list[str]":
    """A stratified app subset whose cost is near the median subset's."""
    combos = [
        mem + ilp
        for mem in combinations(memory_bound_apps(), n_memory)
        for ilp in combinations(ilp_bound_apps(), n_ilp)
    ]
    costs = [sum(APP_COST[a] for a in combo) for combo in combos]
    target = statistics.median(costs)
    eligible = [
        combo for combo, cost in zip(combos, costs)
        if abs(cost / target - 1.0) <= COST_TOLERANCE
    ]
    return list(rng.choice(eligible))


@dataclass(frozen=True)
class SweepInputs:
    """Inputs of the two sweep workloads."""

    apps: "tuple[str, ...]"
    kernels: "tuple[str, ...]"
    instructions: int = INSTRUCTIONS


#: Fixed inputs ``paper_err`` is measured on, the same in every run so the
#: metric moves only when the model does: one memory-bound and one
#: ILP-bound app and two GPU kernels.
PAPER_ERR_INPUTS = SweepInputs(apps=("fft", "lu"), kernels=("DCT", "Reduction"))


def sweep_inputs(workload: str, seed: int) -> SweepInputs:
    """Two memory-bound + two ILP-bound apps and three GPU kernels."""
    rng = rng_for(workload, seed)
    apps = balanced_apps(rng, 2, 2)
    kernels = rng.sample(sorted(GPU_KERNELS), 3)
    return SweepInputs(apps=tuple(apps), kernels=tuple(kernels))


@dataclass(frozen=True)
class ServeJob:
    """One client request: a cell, and whether it resubmits an earlier job."""

    index: int
    run_kind: str
    config: str
    workload: str
    #: ``"store"`` (pre-populated), ``"fresh"`` (engine) or ``"duplicate"``.
    source: str
    #: Index of the job a duplicate resubmits (same id, same spec).
    original: "int | None" = None

    @property
    def cell(self) -> tuple:
        return (self.run_kind, self.config, self.workload)


@dataclass(frozen=True)
class ServeInputs:
    """The seed's serve cells; :meth:`jobs` orders them for one pass."""

    seed: int
    apps: "tuple[str, ...]"
    kernels: "tuple[str, ...]"
    instructions: int = INSTRUCTIONS

    def cells(self, source: str) -> "list[tuple]":
        """(run_kind, config, workload) of the ``"store"`` or ``"fresh"`` cells."""
        if source == "store":
            return [("gpu", c, k) for c in GPU_MAIN_CONFIGS for k in self.kernels]
        return [("cpu", c, a) for c in CPU_MAIN_CONFIGS for a in self.apps]

    def jobs(self, pass_index: int) -> "tuple[ServeJob, ...]":
        """Every cell once plus the resubmits, in this pass's seeded order.

        Each pass draws a new order, so the latency tail of a run covers
        many arrival orders instead of one order's queueing clusters.
        """
        rng = random.Random(f"serve-http:{self.seed}:{pass_index}")
        cells = [(*c, "store") for c in self.cells("store")]
        cells += [(*c, "fresh") for c in self.cells("fresh")]
        rng.shuffle(cells)
        # [cell, original-or-None]; a resubmit lands DUPLICATE_MIN_GAP or
        # more requests after its original (or last, near the end).
        order = [[cell, None] for cell in cells]
        for original in rng.sample(cells, SERVE_DUPLICATES):
            at = next(i for i, (c, o) in enumerate(order) if c is original and o is None)
            earliest = min(at + DUPLICATE_MIN_GAP, len(order))
            order.insert(rng.randint(earliest, len(order)), [original, original])
        first_index = {}
        jobs = []
        for index, (cell, original) in enumerate(order):
            kind, config, name, source = cell
            if original is None:
                first_index[id(cell)] = index
                jobs.append(ServeJob(index, kind, config, name, source))
            else:
                jobs.append(ServeJob(
                    index, kind, config, name, "duplicate",
                    original=first_index[id(original)],
                ))
        return tuple(jobs)


#: Serve job mix per pass: every GPU Figure 10 cell of 12 kernels is
#: pre-populated in the store (60 reads), every CPU Figure 7 cell of the
#: 2+2 apps is fresh (24 engine runs), and 18 requests resubmit an
#: earlier job.
SERVE_KERNELS = 12
SERVE_DUPLICATES = 18
DUPLICATE_MIN_GAP = 2


def serve_inputs(seed: int) -> ServeInputs:
    rng = rng_for("serve-http", seed)
    apps = balanced_apps(rng, 2, 2)
    kernels = sorted(rng.sample(sorted(GPU_KERNELS), SERVE_KERNELS))
    return ServeInputs(seed=seed, apps=tuple(apps), kernels=tuple(kernels))
