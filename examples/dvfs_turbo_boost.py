"""Hetero-device DVFS: turbo boost and slow-down on a two-Vdd core.

HetCore runs CMOS units at one supply and TFET units at another, so a DVFS
transition must move *both* rails along their own Vdd-frequency curves
(Section III-D).  This example walks a frequency ladder, printing the
voltage pair for each step and the resulting energy for BaseCMOS and
AdvHet, plus the process-variation guardband case of Section VII-D.

Usage::

    python examples/dvfs_turbo_boost.py
"""

from repro import HetCoreDvfs, cpu_config, simulate_cpu
from repro.devices.variation import VariationGuardbands
from repro.devices.vf import NOMINAL_V_CMOS, NOMINAL_V_TFET

APP = "lu"
FREQUENCIES = [1.5, 1.75, 2.0, 2.25, 2.5]


def main() -> None:
    dvfs = HetCoreDvfs()

    print("=== Voltage pairs along the DVFS ladder (Figure 3) ===")
    print(f"{'freq':>6}{'V_CMOS':>9}{'V_TFET':>9}{'dV_CMOS':>9}{'dV_TFET':>9}")
    for f in FREQUENCIES:
        p = dvfs.point(f)
        print(
            f"{f:>5.2f}G{p.pair.v_cmos:>9.3f}{p.pair.v_tfet:>9.3f}"
            f"{p.pair.delta_v_cmos_mv:>8.0f}m{p.pair.delta_v_tfet_mv:>8.0f}m"
        )
    print(
        "\nThe TFET curve is shallower, so boosts cost more TFET millivolts"
        "\nthan CMOS millivolts -- and slow-downs give more back."
    )

    print(f"\n=== Energy on '{APP}' (normalised to BaseCMOS @ 2 GHz) ===")
    # At 2 GHz (both designs' own frequency) only the voltages move, so
    # one run per design is priced for the nominal and guardband rows.
    designs = {name: cpu_config(name) for name in ("BaseCMOS", "AdvHet")}
    nominal = {name: simulate_cpu(d, APP) for name, d in designs.items()}

    def at(name: str, f: float, variation: bool = False):
        if f == designs[name].freq_ghz:
            return dvfs.price(nominal[name], designs[name], f, variation)
        return dvfs.simulate_at(designs[name], APP, f, variation)

    base_2ghz = at("BaseCMOS", 2.0)
    print(f"{'freq':>6}{'BaseCMOS':>10}{'AdvHet':>9}{'savings':>9}")
    for f in FREQUENCIES:
        cmos = at("BaseCMOS", f)
        adv = at("AdvHet", f)
        e_cmos = cmos.energy_j / base_2ghz.energy_j
        e_adv = adv.energy_j / base_2ghz.energy_j
        print(
            f"{f:>5.2f}G{e_cmos:>10.3f}{e_adv:>9.3f}"
            f"{1 - e_adv / e_cmos:>8.1%}"
        )

    g = VariationGuardbands()
    vc, vt = g.guarded_voltages(NOMINAL_V_CMOS, NOMINAL_V_TFET)
    print(
        f"\n=== Process variation (guardbands: CMOS -> {vc:.2f} V, "
        f"TFET -> {vt:.2f} V) ==="
    )
    cmos = at("BaseCMOS", 2.0, variation=True)
    adv = at("AdvHet", 2.0, variation=True)
    e_cmos = cmos.energy_j / base_2ghz.energy_j
    e_adv = adv.energy_j / base_2ghz.energy_j
    print(
        f"BaseCMOS {e_cmos:.3f}   AdvHet {e_adv:.3f}   "
        f"relative savings {1 - e_adv / e_cmos:.1%}"
    )
    print(
        "Both designs pay for the guardbands; AdvHet keeps most (but not "
        "quite all) of its relative advantage, as in Figure 14."
    )


if __name__ == "__main__":
    main()
