"""Ablation benches for the design choices DESIGN.md calls out.

1. **Planner-optimal vs naive tilings** — how much GMA the Eq. 2-4 search
   actually buys over fixed square/naive tile choices.
2. **Occupancy constraint** — what relaxing `#tiles >= #SMs` would change
   (the constraint is the paper's; this quantifies its traffic cost).
3. **Fusion legality of the module types** — per-type feasibility rates over
   all candidate pairs of the six models, FP32 vs INT8 (the mechanism behind
   the paper's Table II type shift).
"""


from repro.core.chain import FusedChain
from repro.core.dtypes import DType
from repro.core.fcm import FcmType, candidate_fcm_types
from repro.core.tiling import PwTiling
from repro.errors import UnsupportedError
from repro.experiments import format_table
from repro.gpu.specs import GTX1660, RTX_A4000
from repro.ir.layers import ConvKind, ConvSpec
from repro.models.zoo import MODELS, build_model
from repro.planner.chain_costs import FCM_TILING_KEYS
from repro.planner.costs import pw_feasible, pw_gma
from repro.planner.search import best_chain_tiling, best_lbl_tiling

_LAYERS = [
    ConvSpec("early", ConvKind.POINTWISE, 32, 64, 112, 112),
    ConvSpec("mid", ConvKind.POINTWISE, 256, 256, 28, 28),
    ConvSpec("late", ConvKind.POINTWISE, 512, 512, 14, 14),
]


def test_ablation_search_vs_naive(benchmark, once, capsys):
    def run():
        rows = []
        for spec in _LAYERS:
            best = best_lbl_tiling(spec, RTX_A4000)
            naive = []
            for tm, thw in ((32, 32), (64, 64), (spec.out_channels, 256)):
                t = PwTiling(tm, min(thw, spec.out_h * spec.out_w))
                if pw_feasible(spec, t, RTX_A4000):
                    naive.append(pw_gma(spec, t).total_bytes)
            worst = max(naive) if naive else float("nan")
            rows.append([spec.name, f"{best.gma_bytes / 1e6:.2f}",
                         f"{worst / 1e6:.2f}",
                         f"{worst / best.gma_bytes:.2f}x" if naive else "-"])
        return rows

    rows = once(benchmark, run)
    with capsys.disabled():
        print("\n[Ablation] Eq.2 tile search vs naive square tilings (RTX, MB)")
        print(format_table(["layer", "planner GMA", "worst naive GMA", "ratio"],
                           rows))
    assert all(float(r[1]) <= float(r[2]) for r in rows if r[3] != "-")


def test_ablation_occupancy_constraint(benchmark, once, capsys):
    """Relaxing #tiles >= #SMs: traffic gain on small-HW layers."""

    def run():
        spec = _LAYERS[2]  # 512x512 @ 14x14: the constrained regime
        constrained = best_lbl_tiling(spec, RTX_A4000).gma_bytes
        # Unconstrained minimum over the same vocabulary.
        best_free = None
        for tm in (8, 16, 32, 64, 128, 256, 512):
            for thw in (4, 8, 16, 32, 64, 128, 196):
                t = PwTiling(tm, thw)
                gma = pw_gma(spec, t).total_bytes
                if best_free is None or gma < best_free:
                    best_free = gma
        return constrained, best_free

    constrained, free = once(benchmark, run)
    with capsys.disabled():
        print(f"\n[Ablation] occupancy constraint on late PW layer: "
              f"constrained {constrained / 1e6:.2f} MB vs "
              f"unconstrained {free / 1e6:.2f} MB "
              f"({constrained / free:.2f}x traffic cost of full occupancy)")
    assert constrained >= free


def test_ablation_module_feasibility(benchmark, once, capsys):
    """Per-FCM-type feasibility over every candidate pair, FP32 vs INT8."""

    def run():
        rows = []
        for dtype in (DType.FP32, DType.INT8):
            counts: dict[str, list[int]] = {t.name: [0, 0] for t in FcmType}
            for model in MODELS:
                for cand in build_model(model, dtype).fusion_candidates():
                    try:
                        types = candidate_fcm_types(*cand.pair_kinds)
                    except UnsupportedError:
                        continue
                    chain = FusedChain((cand.first, cand.second))
                    for t in types:
                        counts[t.name][1] += 1
                        if best_chain_tiling(chain, FCM_TILING_KEYS[t], GTX1660):
                            counts[t.name][0] += 1
            for name, (ok, total) in counts.items():
                if total:
                    rows.append([str(dtype), name, f"{ok}/{total}",
                                 f"{ok / total:.0%}"])
        return rows

    rows = once(benchmark, run)
    with capsys.disabled():
        print("\n[Ablation] FCM feasibility rate per type (GTX, all candidate pairs)")
        print(format_table(["dtype", "module", "feasible", "rate"], rows))
    # INT8 must be at least as feasible as FP32 for every module type.
    by = {(r[0], r[1]): float(r[3].rstrip("%")) for r in rows}
    for t in FcmType:
        if ("fp32", t.name) in by and ("int8", t.name) in by:
            assert by[("int8", t.name)] >= by[("fp32", t.name)] - 1e-9
