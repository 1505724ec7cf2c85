"""Fusion inside convolutional ViTs: CeiT's LeFF and CMT's IRFFN blocks.

The paper's F9-F12 cases come from vision transformers whose feed-forward
networks hide PW-DW-PW convolution chains.  This example extracts those
chains, shows what FusePlanner decides per GPU and precision, and highlights
the INT8 effect (larger feasible tiles, less redundant recomputation).

Run:  python examples/vit_fusion_cases.py
"""

from repro import DType
from repro.gpu import ALL_GPUS
from repro.models import build_model
from repro.planner import FusePlanner


def main() -> None:
    for model_name, block in (("ceit", "blk1_leff"), ("cmt", "s2b1_ffn")):
        print(f"=== {model_name}: {block} (PW-DW-PW chain) ===")
        for dtype in (DType.FP32, DType.INT8):
            graph = build_model(model_name, dtype)
            pw1 = graph.spec(f"{block}_pw1")
            dw = graph.spec(f"{block}_dw")
            pw2 = graph.spec(f"{block}_pw2")
            print(f"  {dtype}: {pw1.describe()} -> {dw.describe()} -> {pw2.describe()}")
            for gpu in ALL_GPUS:
                planner = FusePlanner(gpu)
                for first, second in ((pw1, dw), (dw, pw2)):
                    step = planner.evaluate_chain((first, second))
                    if step is None:
                        print(f"    {gpu.name:5s} {first.name}->{second.name}: no feasible FCM")
                        continue
                    print(
                        f"    {gpu.name:5s} {first.name.split('_')[-1]}->"
                        f"{second.name.split('_')[-1]}: {step.fcm_type.name:7s} "
                        f"saves {step.est_savings_bytes / 1e3:8.1f} KB "
                        f"(redundancy {step.redundancy_ratio:.0%}, tiles {step.tiling})"
                    )
        print()


if __name__ == "__main__":
    main()
