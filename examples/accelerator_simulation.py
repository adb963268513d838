"""Simulate the Mokey accelerator against Tensor Cores and GOBO (Fig. 9-13 flow).

Declares the sweep as a :class:`~repro.experiments.spec.CampaignSpec` —
the on-chip buffer axis for a chosen model/task workload across the three
accelerator designs the paper evaluates — and streams it through
``iter_campaign``, printing progress as scenarios complete, then prints
cycle counts, speedups, energy breakdowns and chip areas.

Run with::

    python examples/accelerator_simulation.py [model] [task] [store_dir]

e.g. ``python examples/accelerator_simulation.py bert-large squad``.  With
a ``store_dir``, every completed scenario is appended to an on-disk
artifact store *as it finishes* — kill the run halfway and a second
invocation resumes from the store, simulating only what is missing (the
same spec can be saved with ``spec.save("sweep.json")`` and driven from
the CLI: ``python -m repro campaign run --spec sweep.json``).
"""

import sys
from typing import Optional

from repro.analysis.reporting import format_table
from repro.experiments import (
    ArtifactStore,
    AxisGrid,
    CampaignResult,
    CampaignSpec,
    ExecutionPolicy,
    ResultCache,
    iter_campaign,
)

KB = 1024
MB = 1024 * 1024
BUFFERS = (256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB)
DESIGNS = ("tensor-cores", "gobo", "mokey")


def main(
    model_name: str = "bert-large", task: str = "squad", store_dir: Optional[str] = None
) -> None:
    spec = CampaignSpec(
        name="accelerator-simulation",
        axes=AxisGrid(
            workloads=((model_name, task, None),),
            designs=DESIGNS,
            buffer_bytes=BUFFERS,
        ),
        execution=ExecutionPolicy(store=store_dir),
    )
    # The result below holds this cache; its backing store is the same
    # directory the spec's policy names, so the CLI (`repro campaign run
    # --spec`) and this script share results.
    cache = ResultCache(store=None if store_dir is None else ArtifactStore(store_dir))

    records = []
    for record, progress in iter_campaign(spec, cache=cache):
        records.append(record)
        print(
            f"  {progress} {record.scenario.label}"
            + (" [cached]" if record.cached else ""),
            file=sys.stderr,
        )
    campaign = CampaignResult(records, cache)
    if store_dir is not None:
        print(
            f"store {store_dir}: {campaign.simulated_count} simulated, "
            f"{len(campaign) - campaign.simulated_count} served from disk"
        )

    scenarios = spec.scenarios()
    workload = scenarios[0].build_workload()
    print(f"workload: {workload.name} — {workload.total_macs / 1e9:.1f} GMACs, "
          f"{workload.num_layers} encoder layers")

    rows = []
    for size in BUFFERS:
        results = {
            name: campaign.result(design=name, buffer_bytes=size) for name in DESIGNS
        }
        tc, gobo, mokey = results["tensor-cores"], results["gobo"], results["mokey"]
        rows.append([
            f"{size // KB}KB",
            f"{tc.total_cycles / 1e6:.0f}M",
            f"{gobo.total_cycles / 1e6:.0f}M",
            f"{mokey.total_cycles / 1e6:.0f}M",
            f"{mokey.speedup_over(tc):.2f}x",
            f"{mokey.speedup_over(gobo):.2f}x",
            f"{mokey.energy_efficiency_over(tc):.2f}x",
            f"{tc.energy.total:.2f}J",
            f"{mokey.energy.total:.2f}J",
        ])
    print(format_table(
        ["buffer", "TC cycles", "GOBO cycles", "Mokey cycles",
         "speedup vs TC", "vs GOBO", "energy eff vs TC", "TC energy", "Mokey energy"],
        rows,
    ))

    # Area story at the 512KB point (Table II / III flavour).
    area_rows = [
        [name, f"{r.area.compute:.1f}", f"{r.area.buffer:.1f}", f"{r.area.total:.1f}",
         f"{100 * r.overlap_fraction:.0f}%"]
        for name in DESIGNS
        for r in [campaign.result(design=name, buffer_bytes=512 * KB)]
    ]
    print()
    print(format_table(
        ["design", "compute mm^2", "buffer mm^2", "total mm^2", "compute/memory overlap"],
        area_rows,
    ))


if __name__ == "__main__":
    main(*sys.argv[1:4])
