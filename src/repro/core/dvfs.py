"""Hetero-device DVFS and process variation (Sections III-D, VII-D).

HetCore scales both voltage domains together: a target core frequency f
needs V_CMOS from the CMOS Vdd-frequency curve at f and V_TFET from the
TFET curve at f/2 (TFET stages do half the work).  Because the TFET curve
is shallower, boosts cost relatively more TFET voltage (+90 mV vs +75 mV
for 2.5 GHz) and slow-downs give back more (-80 mV vs -70 mV for 1.5 GHz),
which moves AdvHet's relative energy advantage exactly the way Figure 14
shows.  Process-variation guardbands (+120 mV CMOS, +70 mV TFET) raise
everyone's energy and shave a little off AdvHet's relative savings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.hetcore import CpuDesign
from repro.core.simulate import CpuRunResult, simulate_cpu
from repro.devices.scaling import dynamic_energy_scale, leakage_power_scale
from repro.devices.variation import VariationGuardbands
from repro.devices.vf import NOMINAL_V_CMOS, NOMINAL_V_TFET, DvfsSolver, VoltagePair
from repro.power.model import ScalingKnobs
from repro.workloads.profiles import AppProfile


@dataclass
class DvfsPoint:
    """One frequency point: voltages and the energy multipliers they imply."""

    freq_ghz: float
    pair: VoltagePair
    cmos_energy_scale: float
    tfet_energy_scale: float
    cmos_leakage_scale: float
    tfet_leakage_scale: float


class HetCoreDvfs:
    """Voltage/energy bookkeeping for frequency and variation studies."""

    def __init__(self, solver: DvfsSolver | None = None):
        self.solver = solver or DvfsSolver()

    def point(self, freq_ghz: float) -> DvfsPoint:
        """Voltage pair and energy scales for a core frequency."""
        pair = self.solver.pair_for(freq_ghz)
        return DvfsPoint(
            freq_ghz=freq_ghz,
            pair=pair,
            cmos_energy_scale=dynamic_energy_scale(pair.v_cmos, NOMINAL_V_CMOS),
            tfet_energy_scale=dynamic_energy_scale(pair.v_tfet, NOMINAL_V_TFET),
            cmos_leakage_scale=leakage_power_scale(pair.v_cmos, NOMINAL_V_CMOS),
            tfet_leakage_scale=leakage_power_scale(pair.v_tfet, NOMINAL_V_TFET),
        )

    def knobs_for(self, freq_ghz: float) -> ScalingKnobs:
        """Energy-model knobs for a DVFS point."""
        p = self.point(freq_ghz)
        return ScalingKnobs(
            cmos_energy=p.cmos_energy_scale,
            tfet_energy=p.tfet_energy_scale,
            cmos_leakage=p.cmos_leakage_scale,
            tfet_leakage=p.tfet_leakage_scale,
        )

    def variation_knobs(
        self, guardbands: VariationGuardbands | None = None
    ) -> ScalingKnobs:
        """Energy-model knobs under process-variation guardbands at 2 GHz."""
        g = guardbands or VariationGuardbands()
        return ScalingKnobs(
            cmos_energy=g.cmos_energy_scale(NOMINAL_V_CMOS),
            tfet_energy=g.tfet_energy_scale(NOMINAL_V_TFET),
            cmos_leakage=g.cmos_leakage_scale(NOMINAL_V_CMOS),
            tfet_leakage=g.tfet_leakage_scale(NOMINAL_V_TFET),
        )

    def price(
        self,
        result: CpuRunResult,
        design: CpuDesign,
        freq_ghz: float,
        variation: bool = False,
    ) -> CpuRunResult:
        """``result`` (a run of ``design`` at ``freq_ghz``) re-priced at
        the point's voltages.

        The voltage scales (DVFS, or the guardbands when ``variation``)
        replace the design's own; the activity and runtime are the
        run's.  Returns a new result and leaves ``result`` untouched, so
        a cached CPU cell can be priced without changing it.
        """
        from repro.power.model import cpu_energy

        v = self.variation_knobs() if variation else self.knobs_for(freq_ghz)
        knobs = design.energy_knobs()
        knobs.work_scale = result.multicore.total_work / result.core.committed
        knobs.cmos_energy = v.cmos_energy
        knobs.tfet_energy = v.tfet_energy
        knobs.cmos_leakage = v.cmos_leakage
        knobs.tfet_leakage = v.tfet_leakage
        energy = cpu_energy(
            result.core.activity,
            result.time_s,
            device_map=design.device_map(),
            asym_dl1=design.asym_dl1,
            knobs=knobs,
        )
        return replace(result, energy=energy)

    def simulate_at(
        self,
        design: CpuDesign,
        app: "str | AppProfile",
        freq_ghz: float,
        variation: bool = False,
        instructions: int | None = None,
        warmup: int | None = None,
    ) -> CpuRunResult:
        """Run a design at a DVFS point (optionally with guardbands).

        The performance simulation reruns at the new frequency (the DRAM
        round trip changes in cycles); :meth:`price` then applies the
        voltage scales on top of the design's own knobs.
        """
        from repro.core.simulate import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP

        if instructions is None:
            instructions = DEFAULT_INSTRUCTIONS
        if warmup is None:
            warmup = DEFAULT_WARMUP
        scaled = replace(design, freq_ghz=freq_ghz)
        result = simulate_cpu(
            scaled, app, instructions=instructions, warmup=warmup
        )
        return self.price(result, scaled, freq_ghz, variation)
