"""Mokey as a memory-compression assist for an FP16 accelerator (Fig. 14-15 flow).

Shows both halves of Section IV-D:

1. the off-chip container of Fig. 5 — pack a quantized tensor, verify the
   round trip, and report the footprint reduction, and
2. the system-level effect — run the Tensor-Cores baseline with Mokey
   compressing off-chip only (OC) and off-chip + on-chip (OC+ON) and
   report the speedup and energy gains across buffer sizes.

Run with::

    python examples/memory_compression.py
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.quantizer import MokeyQuantizer
from repro.experiments import AxisGrid, CampaignSpec, run_spec
from repro.memory.layout import pack_offchip, unpack_offchip

KB = 1024
MB = 1024 * 1024
BUFFERS = (256 * KB, 1 * MB, 4 * MB)


def container_demo() -> None:
    rng = np.random.default_rng(7)
    quantizer = MokeyQuantizer()
    activations = rng.normal(0.5, 2.0, 1 << 18)
    outliers = rng.choice(activations.size, int(0.045 * activations.size), replace=False)
    activations[outliers] = rng.choice([-1, 1], outliers.size) * 40.0

    quantized = quantizer.quantize(activations, name="layer.activations")
    container = pack_offchip(quantized.encoded)
    restored = unpack_offchip(container)

    print("Off-chip container (Fig. 5):")
    print(f"  values: {container.num_values}, outliers: {quantized.outlier_count} "
          f"({100 * quantized.outlier_fraction:.2f}%)")
    print(f"  value stream: {container.value_bits / 8 / 1024:.1f} KB, "
          f"pointer stream: {container.pointer_bits / 8 / 1024:.1f} KB")
    print(f"  compression vs FP16: {container.compression_ratio(16):.2f}x "
          f"(round trip lossless: {bool(np.array_equal(restored.is_outlier, quantized.encoded.is_outlier.ravel()))})")


def system_demo() -> None:
    campaign = run_spec(CampaignSpec(axes=AxisGrid(
        workloads=[("bert-large", "squad", None)],
        designs=(
            "tensor-cores",
            "tensor-cores+mokey-oc",
            "tensor-cores+mokey-oc+on",
        ),
        buffer_bytes=BUFFERS,
    )))

    rows = []
    for size in BUFFERS:
        base = campaign.result(design="tensor-cores", buffer_bytes=size)
        r_oc = campaign.result(design="tensor-cores+mokey-oc", buffer_bytes=size)
        r_ocon = campaign.result(design="tensor-cores+mokey-oc+on", buffer_bytes=size)
        rows.append([
            f"{size // KB}KB",
            f"{base.traffic_bytes / 1e9:.2f}GB",
            f"{r_oc.traffic_bytes / 1e9:.2f}GB",
            f"{r_oc.speedup_over(base):.2f}x",
            f"{r_ocon.speedup_over(base):.2f}x",
            f"{r_oc.energy_efficiency_over(base):.2f}x",
            f"{r_ocon.energy_efficiency_over(base):.2f}x",
        ])
    print("\nTensor Cores + Mokey compression on BERT-Large/SQuAD:")
    print(format_table(
        ["buffer", "baseline traffic", "OC traffic",
         "OC speedup", "OC+ON speedup", "OC energy gain", "OC+ON energy gain"],
        rows,
    ))


if __name__ == "__main__":
    container_demo()
    system_demo()
