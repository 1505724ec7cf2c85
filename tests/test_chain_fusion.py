"""Chain fusion: IR legality, cost-model reduction, DP planner, kernel, serving."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import dw_spec, pw_spec, random_ifm, ref_layer
from repro.core.chain import FusedChain, composed_receptive_field
from repro.core.dtypes import DType
from repro.core.fcm import FcmType, candidate_fcm_types
from repro.errors import PlanError, ShapeError, UnsupportedError
from repro.gpu.specs import GTX1660, ORIN, RTX_A4000
from repro.ir.blocks import inverted_residual_block, standard_conv
from repro.ir.graph import ModelGraph
from repro.kernels.fused_chain import FusedChainKernel
from repro.kernels.params import chain_quant, make_layer_params
from repro.kernels.registry import build_chain_kernel
from repro.planner.analytic import chain_counters
from repro.planner.chain_costs import (
    FCM_TILING_KEYS,
    FcmCost,
    chain_dataflow,
    chain_feasible,
    chain_footprints,
    chain_gma,
    chain_tiling_keys,
    chain_vocabularies,
    fcm_type_of,
)
from repro.planner.costs import GmaEstimate
from repro.planner.grid_search import chain_grid
from repro.planner.plan import ChainStep, StdStep
from repro.planner.planner import FusePlanner
from repro.planner.search import best_chain_tiling, best_lbl_tiling


def _pw(name, c_in, c_out, h=16, w=16, dtype=DType.FP32, stride=1):
    return pw_spec(name, c_in=c_in, c_out=c_out, h=h, w=w, dtype=dtype, stride=stride)


def _dw(name, c, h=16, w=16, dtype=DType.FP32, stride=1):
    return dw_spec(name, c=c, h=h, w=w, dtype=dtype, stride=stride)


def _pdp_chain(dtype=DType.FP32, h=16):
    """The canonical inverted-residual PW->DW->PW chain."""
    return FusedChain(
        (
            _pw("e", 8, 32, h, h, dtype),
            _dw("d", 32, h, h, dtype),
            _pw("p", 32, 16, h, h, dtype),
        )
    )


class TestFusedChainIR:
    def test_legal_chains(self):
        c = _pdp_chain()
        assert c.length == 3 and c.kinds == "pw-dw-pw"
        assert c.layer_names == ("e", "d", "p")
        assert c.has_interior_halo
        FusedChain((_dw("d", 8), _pw("p", 8, 16), _pw("q", 16, 8)))

    def test_rejects_short_and_illegal(self):
        with pytest.raises(ShapeError):
            FusedChain((_pw("p", 8, 16),))
        with pytest.raises(ShapeError):  # dw->dw adjacency
            FusedChain((_dw("a", 8), _dw("b", 8)))
        with pytest.raises(ShapeError):  # shape mismatch
            FusedChain((_pw("p", 8, 16), _dw("d", 32)))
        with pytest.raises(ShapeError):  # mixed precision
            FusedChain((_pw("p", 8, 16), _dw("d", 16, dtype=DType.INT8)))
        with pytest.raises(ShapeError):  # standard conv member
            from repro.ir.layers import ConvKind, ConvSpec

            std = ConvSpec("s", ConvKind.STANDARD, 16, 16, 16, 16, kernel=3, padding=1)
            FusedChain((_pw("p", 8, 16), std))

    def test_pairwise_type_mapping(self):
        """Each FCM is the length-2 chain of its kinds under its own keys."""
        dp = FusedChain((_dw("d", 8), _pw("p", 8, 16)))
        pd = FusedChain((_pw("p", 8, 16), _dw("d", 16, stride=2)))
        pp = FusedChain((_pw("p", 8, 16, stride=2), _pw("q", 16, 8, 8, 8)))
        assert FCM_TILING_KEYS[FcmType.DWPW] == chain_tiling_keys(dp)
        pwdw = chain_dataflow(pd, {"tile_f": 6})
        assert (pwdw.tile_f, pwdw.n_f, pwdw.n_sp, pwdw.streamed) == (6, 3, 1, True)
        pwdw_r = chain_dataflow(pd, {"tile_f": 32, "tile_h": 3, "tile_w": 8})
        assert (pwdw_r.tile_f, pwdw_r.tile_h, pwdw_r.tile_w) == (16, 3, 8)
        assert (pwdw_r.n_f, pwdw_r.n_sp, pwdw_r.streamed) == (1, 3, False)
        pwpw = chain_dataflow(pp, {"tile_hw": 48, "tile_m": 4})
        assert [s.ifm.shape for s in pwpw.chain.specs] == [(8, 1, 64), (16, 1, 64)]
        assert (pwpw.tile_h, pwpw.tile_w, pwpw.tile_m, pwpw.n_sp) == (1, 48, 4, 2)
        with pytest.raises(ShapeError):  # channel groups belong to pw->dw pairs
            chain_dataflow(dp, {"tile_f": 4})
        with pytest.raises(ShapeError):  # pairwise vocabularies are length-2
            chain_dataflow(_pdp_chain(), {"tile_hw": 16, "tile_m": 8})
        with pytest.raises(UnsupportedError):  # no flattened plane
            chain_dataflow(
                FusedChain((_pw("p", 8, 16), _pw("q", 16, 8, stride=2))),
                {"tile_hw": 16, "tile_m": 8},
            )

    def test_fcm_vocabularies_derive_their_type(self):
        """Every vocabulary a pair's search sweeps reads back as its FCM
        type, in the taxonomy's order; longer chains and a pair under the
        generic chain keys speak no FCM."""
        pairs = (
            FusedChain((_dw("d", 8), _pw("p", 8, 16))),
            FusedChain((_pw("p", 8, 16), _dw("d", 16))),
            FusedChain((_pw("p", 8, 16), _pw("q", 16, 8))),
        )
        for chain in pairs:
            types = candidate_fcm_types(chain.first.kind.short, chain.last.kind.short)
            vocabs = chain_vocabularies(chain)
            assert vocabs == tuple(FCM_TILING_KEYS[t] for t in types)
            assert tuple(fcm_type_of(chain.specs, keys) for keys in vocabs) == types
        assert chain_vocabularies(_pdp_chain()) == (chain_tiling_keys(_pdp_chain()),)
        assert fcm_type_of(_pdp_chain().specs, chain_tiling_keys(_pdp_chain())) is None
        for chain in pairs[1:]:  # PW->DW and PW->PW under their chain keys
            assert fcm_type_of(chain.specs, chain_tiling_keys(chain)) is None

    def test_unspoken_vocabulary_is_refused_alike(self):
        """A key set naming no vocabulary of the chain is a ShapeError for
        the cost model, the grid and the kernel registry."""
        dp = (_dw("d", 8, 12, 12), _pw("p", 8, 16, 12, 12))
        cases = [
            (dp, {"tile_f": 4}),  # channel groups belong to PW->DW pairs
            (dp, {"tile_h": 4, "tile_w": 4, "tile_q": 8}),
            (tuple(_pdp_chain(h=12).specs), {"tile_hw": 16, "tile_m": 8}),
            ((_pw("p", 8, 16, 12, 12), _dw("d", 16, 12, 12)), {"tile_h": 4, "tile_m": 8}),
        ]
        for specs, tiling in cases:
            chain = FusedChain(specs)
            params = [make_layer_params(specs[0])]
            for spec in specs[1:]:
                params.append(chain_quant(params[-1], spec))
            with pytest.raises(ShapeError):
                chain_gma(chain, tiling)
            with pytest.raises(ShapeError):
                chain_grid(chain, tuple(tiling), ORIN)
            with pytest.raises(ShapeError):
                build_chain_kernel(params, tiling)

    def test_receptive_field_composition(self):
        c = _pdp_chain()
        k, s = composed_receptive_field(c.specs)
        assert (k, s) == (3, 1)  # pw(1,1) o dw(3,1) o pw(1,1)
        k, s = composed_receptive_field((_dw("a", 8, stride=2), _dw("b", 8)))
        assert (k, s) == (3 + 2 * 2, 2)


class TestChainCostReduction:
    """Length-2 chains must reproduce the pairwise Eq. 4 family exactly."""

    CASES = [
        (FcmType.DWPW, (_dw("d", 16, 28, 28), _pw("p", 16, 32, 28, 28)),
         {"tile_h": 4, "tile_w": 8, "tile_m": 16}),
        (FcmType.DWPW, (_dw("d", 16, 28, 28, stride=2), _pw("p", 16, 32, 14, 14)),
         {"tile_h": 7, "tile_w": 14, "tile_m": 32}),
        (FcmType.PWDW, (_pw("p", 8, 32, 28, 28), _dw("d", 32, 28, 28)),
         {"tile_f": 8}),
        (FcmType.PWDW_R, (_pw("p", 8, 32, 28, 28), _dw("d", 32, 28, 28)),
         {"tile_f": 16, "tile_h": 4, "tile_w": 4}),
        (FcmType.PWDW_R, (_pw("p", 8, 32, 28, 28), _dw("d", 32, 28, 28, stride=2)),
         {"tile_f": 32, "tile_h": 7, "tile_w": 7}),
        (FcmType.PWPW, (_pw("p", 8, 32, 28, 28), _pw("q", 32, 16, 28, 28)),
         {"tile_hw": 49, "tile_m": 16}),
    ]

    # Every FCM is priced by the chain model itself, so the rows compare
    # against literals: the GMA, footprint and feasibility values of the
    # dedicated pairwise models the chain model replaced.  DWPW's are keyed
    # by (tile_h, tile_w, tile_m), the others' by (type, tiling values).
    # FP32, so elem_bytes is 4.
    DWPW_GMA = {
        ((4, 8, 16), "paper"): ((47040, 25088), 514304),
        ((4, 8, 16), "measured"): ((40128, 25088), 514304),
        ((7, 14, 32), "paper"): ((14752, 6272), 128576),
        ((7, 14, 32), "measured"): ((14304, 6272), 128576),
        ((7, 28, 32), "paper"): ((20544, 25088), 514304),
        ((7, 28, 32), "measured"): ((17856, 25088), 514304),
        ((28, 28, 8), "paper"): ((13200, 25088), 514304),
        ((28, 28, 8), "measured"): ((13200, 25088), 514304),
    }
    #: (L1 bytes, shared bytes, output tiles), then feasible on GTX/Orin/RTX.
    DWPW_FOOTPRINTS = {
        (4, 8, 16): ((10048, 2048, 28), (True, True, False)),
        (7, 14, 32): ((51392, 6272, 2), (False, False, False)),
    }

    #: ((reads, writes), redundant MACs, useful MACs) of the other rows.
    PAIR_GMA = {
        (FcmType.PWDW, (8,), "paper"): ((25632, 25088), 0, 426496),
        (FcmType.PWDW, (8,), "measured"): ((25632, 25088), 0, 426496),
        (FcmType.PWDW_R, (16, 4, 4), "paper"): ((60704, 25088), 172032, 426496),
        (FcmType.PWDW_R, (16, 4, 4), "measured"): ((52256, 25088), 208896, 426496),
        (FcmType.PWDW_R, (32, 7, 7), "paper"): ((9344, 6272), 14336, 257152),
        (FcmType.PWDW_R, (32, 7, 7), "measured"): ((8904, 6272), 14592, 257152),
        (FcmType.PWPW, (49, 16), "paper"): ((18560, 12544), 0, 602112),
        (FcmType.PWPW, (49, 16), "measured"): ((18560, 12544), 0, 602112),
    }
    PAIR_FOOTPRINTS = {
        (FcmType.PWDW, (8,)): ((27424, 25088, 4), (False, False, False)),
        (FcmType.PWDW_R, (16, 4, 4)): ((5568, 2304, 98), (True, True, True)),
        (FcmType.PWDW_R, (32, 7, 7)): ((44448, 28800, 4), (False, False, False)),
        (FcmType.PWPW, (49, 16)): ((14080, 6272, 16), (False, True, False)),
    }

    @staticmethod
    def _cost(specs, tiling, convention) -> FcmCost:
        """``paper``: the Eq. 4 family the searches rank by; ``measured``:
        what the analytic counters charge a launch, in elements."""
        if convention == "paper":
            return chain_gma(FusedChain(specs), tiling)
        c = chain_counters(specs, tiling)
        eb = specs[0].dtype.nbytes
        return FcmCost(
            GmaEstimate(c.read_bytes // eb, c.write_bytes // eb, eb), c.redundant_macs, c.macs
        )

    @classmethod
    def _dwpw_cost(cls, tiling, convention) -> FcmCost:
        (reads, writes), useful = cls.DWPW_GMA[tuple(tiling.values()), convention]
        return FcmCost(GmaEstimate(reads, writes, 4), 0, useful)

    @classmethod
    def _replaced_cost(cls, fcm_type, tiling, convention) -> FcmCost:
        if fcm_type is FcmType.DWPW:
            return cls._dwpw_cost(tiling, convention)
        key = (fcm_type, tuple(tiling.values()), convention)
        (reads, writes), redundant, useful = cls.PAIR_GMA[key]
        return FcmCost(GmaEstimate(reads, writes, 4), redundant, useful)

    @classmethod
    def _replaced_footprints(cls, fcm_type, tiling):
        if fcm_type is FcmType.DWPW:
            return cls.DWPW_FOOTPRINTS[tuple(tiling.values())]
        return cls.PAIR_FOOTPRINTS[fcm_type, tuple(tiling.values())]

    @pytest.mark.parametrize("convention", ["paper", "measured"])
    @pytest.mark.parametrize("fcm_type,specs,tiling", CASES)
    def test_len2_reproduces_fcm_gma(self, fcm_type, specs, tiling, convention):
        assert fcm_type_of(specs, tiling) is fcm_type
        cg = self._cost(specs, tiling, convention)
        assert cg == self._replaced_cost(fcm_type, tiling, convention)

    @pytest.mark.parametrize("fcm_type,specs,tiling", CASES)
    def test_len2_reproduces_footprints_and_feasibility(self, fcm_type, specs, tiling):
        chain = FusedChain(specs)
        footprints = chain_footprints(chain, tiling)
        feasible = tuple(
            chain_feasible(chain, tiling, gpu) for gpu in (GTX1660, ORIN, RTX_A4000)
        )
        assert (footprints, feasible) == self._replaced_footprints(fcm_type, tiling)

    @pytest.mark.parametrize("convention", ["paper", "measured"])
    def test_general_model_reduces_to_dwpw(self, convention):
        """The compositional model reproduces the dedicated DW->PW model's
        GMA, pinned as literals."""
        dw, pw = _dw("d", 16, 28, 28), _pw("p", 16, 32, 28, 28)
        for th, tw, tm in [(4, 8, 16), (7, 28, 32), (28, 28, 8)]:
            tiling = {"tile_h": th, "tile_w": tw, "tile_m": tm}
            expected = self._dwpw_cost(tiling, convention)
            assert self._cost((dw, pw), tiling, convention) == expected

    def test_tiling_keys(self):
        assert chain_tiling_keys(_pdp_chain()) == ("tile_h", "tile_w", "tile_m")
        ends_dw = FusedChain((_pw("p", 8, 16), _dw("d", 16)))
        assert chain_tiling_keys(ends_dw) == ("tile_h", "tile_w")

    def test_pure_pw_chain_has_no_redundancy(self):
        chain = FusedChain(
            (_pw("a", 8, 16), _pw("b", 16, 32), _pw("c", 32, 8))
        )
        cost = chain_counters(chain.specs, {"tile_h": 4, "tile_w": 4, "tile_m": 8})
        assert cost.redundant_macs == 0
        assert cost.macs == chain.macs

    def test_interior_halo_produces_redundancy(self):
        cost = chain_counters(_pdp_chain().specs, {"tile_h": 4, "tile_w": 4, "tile_m": 16})
        assert cost.redundant_macs > 0
        assert 0 < cost.redundancy_ratio < 1


class TestChainSearchAndDP:
    def test_best_chain_tiling_feasible(self):
        chain = _pdp_chain(h=32)
        res = best_chain_tiling(chain, chain_tiling_keys(chain), ORIN)
        assert res is not None
        assert chain_feasible(chain, res.tiling, ORIN)
        assert set(res.tiling) == set(chain_tiling_keys(chain))

    def test_best_chain_tiling_infeasible_returns_none(self, tiny_gpu):
        chain = FusedChain(
            (
                _pw("e", 64, 512, 64, 64),
                _dw("d", 512, 64, 64),
                _pw("p", 512, 256, 64, 64),
            )
        )
        assert best_chain_tiling(chain, chain_tiling_keys(chain), tiny_gpu) is None

    def _net(self, dtype=DType.FP32):
        g = ModelGraph("m")
        first = standard_conv(g, "stem", 3, 16, 56, 56, stride=1, dtype=dtype)
        last = inverted_residual_block(g, "ir1", 16, 16, 56, 56, after=first, dtype=dtype)
        inverted_residual_block(g, "ir2", 16, 24, 56, 56, stride=2, after=last, dtype=dtype)
        return g

    def test_max_chain_1_never_fuses(self):
        plan = FusePlanner(ORIN, max_chain=1).plan(self._net())
        assert plan.fcm_steps == []

    def test_max_chain_3_fuses_inverted_residual_runs(self):
        plan = FusePlanner(ORIN, max_chain=3).plan(self._net())
        assert any(s.length == 3 for s in plan.fcm_steps)
        # Chains beat the pairwise plan on total estimated traffic.
        pair = FusePlanner(ORIN, max_chain=2).plan(self._net())
        assert plan.est_total_gma_bytes < pair.est_total_gma_bytes

    def test_every_layer_exactly_once(self):
        g = self._net()
        plan = FusePlanner(ORIN, max_chain=4).plan(g)
        conv_names = {c.name for c in g.conv_layers()}
        planned = {n for s in plan.steps for n in getattr(s, "layer_names", ())}
        planned |= {s.spec.name for s in plan.steps if isinstance(s, StdStep)}
        assert planned == conv_names
        fused = [n for s in plan.fcm_steps for n in s.layer_names]
        assert len(fused) == len(set(fused))

    def test_dp_beats_any_fixed_partition(self):
        """DP optimality: total savings >= any enumerated run partition."""
        planner = FusePlanner(ORIN, max_chain=3)
        g = self._net()
        runs = g.fusion_runs()
        assert runs
        plan = planner.plan(g)
        dp_savings = sum(s.est_savings_bytes for s in plan.fcm_steps)

        def partitions(n, k):
            if n == 0:
                yield []
                return
            for length in range(1, min(k, n) + 1):
                for rest in partitions(n - length, k):
                    yield [length] + rest

        for run in runs:
            specs = list(run)
            best_alt = 0
            for part in partitions(len(specs), 3):
                total, i, ok = 0, 0, True
                for length in part:
                    if length > 1:
                        try:
                            dec = planner.evaluate_chain(tuple(specs[i : i + length]))
                        except PlanError:
                            dec = None
                        if dec is None or dec.est_savings_bytes <= 0:
                            ok = False
                            break
                        total += dec.est_savings_bytes
                    i += length
                if ok:
                    best_alt = max(best_alt, total)
            # Whole-model DP savings cover every run's best partition.
            assert dp_savings + 1e-9 >= best_alt

    def test_chain_never_worse_than_best_split(self):
        """The DP's chosen cost never exceeds the best cost of any split of
        the same run into sub-chains (LBL singletons included)."""
        planner = FusePlanner(ORIN, max_chain=3)
        specs = tuple(self._net().fusion_runs()[0])
        dec = planner.evaluate_chain(specs)
        assert dec is not None and dec.est_savings_bytes > 0
        # Compare against all 2-way splits.
        lbl = [planner.lbl_plan(s).gma_bytes for s in specs]
        full_chain_cost = dec.est_gma_bytes
        for cut in range(1, len(specs)):
            parts = (specs[:cut], specs[cut:])
            cost = 0
            for part in parts:
                if len(part) == 1:
                    cost += lbl[specs.index(part[0])]
                else:
                    sub = planner.evaluate_chain(part)
                    cost += sub.est_gma_bytes if sub else sum(
                        lbl[specs.index(s)] for s in part
                    )
            assert full_chain_cost <= cost

    def test_deterministic_plans(self):
        """Planning the same model twice (fresh planners) is bit-identical."""
        for max_chain in (2, 3):
            a = FusePlanner(GTX1660, max_chain=max_chain).plan(self._net())
            b = FusePlanner(GTX1660, max_chain=max_chain).plan(self._net())
            assert a.steps == b.steps

    def test_lbl_cache_keyed_by_geometry_not_name(self):
        """Two same-named layers with different shapes must not collide."""
        planner = FusePlanner(ORIN)
        small = _pw("conv1", 8, 16, 14, 14)
        big = _pw("conv1", 32, 64, 56, 56)
        r_small = planner.lbl_plan(small)
        r_big = planner.lbl_plan(big)
        assert r_small == best_lbl_tiling(small, ORIN)
        assert r_big == best_lbl_tiling(big, ORIN)
        assert r_small != r_big

    def test_explain_reports_candidates(self):
        planner = FusePlanner(ORIN, max_chain=3)
        plan = planner.plan(self._net())
        assert planner.last_candidates
        chosen = [c for c in planner.last_candidates if c.chosen]
        assert {tuple(s.layer_names) for s in plan.fcm_steps} == {
            c.layers for c in chosen
        }
        lengths = {len(c.layers) for c in planner.last_candidates}
        assert lengths == {2, 3}


class TestFusedChainKernel:
    @pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8])
    @pytest.mark.parametrize(
        "kinds",
        ["pw-dw-pw", "dw-pw-pw", "pw-pw-pw", "pw-dw-pw-strided"],
    )
    def test_matches_reference_layers(self, dtype, kinds):
        if kinds == "pw-dw-pw":
            specs = (
                _pw("a", 6, 16, 12, 12, dtype),
                _dw("b", 16, 12, 12, dtype),
                _pw("c", 16, 8, 12, 12, dtype),
            )
        elif kinds == "dw-pw-pw":
            specs = (
                _dw("a", 6, 12, 12, dtype),
                _pw("b", 6, 16, 12, 12, dtype),
                _pw("c", 16, 8, 12, 12, dtype),
            )
        elif kinds == "pw-pw-pw":
            specs = (
                _pw("a", 6, 16, 12, 12, dtype),
                _pw("b", 16, 12, 12, 12, dtype),
                _pw("c", 12, 8, 12, 12, dtype),
            )
        else:  # strided interior DW
            specs = (
                _pw("a", 6, 16, 12, 12, dtype),
                _dw("b", 16, 12, 12, dtype, stride=2),
                _pw("c", 16, 8, 6, 6, dtype),
            )
        params = [make_layer_params(specs[0])]
        for spec in specs[1:]:
            params.append(chain_quant(params[-1], spec))
        kernel = FusedChainKernel(params, tile_h=4, tile_w=4, tile_m=8)
        x = random_ifm(specs[0], seed=3)
        res = kernel.simulate(x, ORIN)
        ref = x
        for p in params:
            ref = ref_layer(p, ref)
        if dtype is DType.INT8:
            np.testing.assert_array_equal(res.output, ref)
        else:
            np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-5)

    def test_final_dw_chain(self):
        specs = (
            _pw("a", 6, 16, 12, 12),
            _pw("b", 16, 12, 12, 12),
            _dw("c", 12, 12, 12),
        )
        params = [make_layer_params(specs[0])]
        for spec in specs[1:]:
            params.append(chain_quant(params[-1], spec))
        kernel = FusedChainKernel(params, tile_h=4, tile_w=6)
        x = random_ifm(specs[0], seed=5)
        res = kernel.simulate(x, ORIN)
        ref = x
        for p in params:
            ref = ref_layer(p, ref)
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-5)

    def test_metered_bytes_equal_measured_estimate(self):
        chain = _pdp_chain(h=16)
        params = [make_layer_params(chain.specs[0])]
        for spec in chain.specs[1:]:
            params.append(chain_quant(params[-1], spec))
        tiling = {"tile_h": 4, "tile_w": 8, "tile_m": 8}
        kernel = FusedChainKernel(params, tile_h=4, tile_w=8, tile_m=8)
        res = kernel.simulate(random_ifm(chain.specs[0]), ORIN, "reference")
        est = chain_counters(chain.specs, tiling)
        assert res.counters.total_bytes == est.total_bytes
        assert res.counters.macs == est.macs
        assert res.counters.redundant_macs == est.redundant_macs

    def test_registry_routes_pairwise_and_chain(self):
        from repro.kernels import DwPwFusedKernel

        dw, pw = _dw("d", 8, 12, 12), _pw("p", 8, 16, 12, 12)
        p_dw = make_layer_params(dw)
        p_pw = chain_quant(p_dw, pw)
        k2 = build_chain_kernel([p_dw, p_pw], {"tile_h": 4, "tile_w": 4, "tile_m": 8})
        assert isinstance(k2, DwPwFusedKernel)
        chain = _pdp_chain(h=12)
        params = [make_layer_params(chain.specs[0])]
        for spec in chain.specs[1:]:
            params.append(chain_quant(params[-1], spec))
        k3 = build_chain_kernel(params, {"tile_h": 4, "tile_w": 4, "tile_m": 8})
        assert isinstance(k3, FusedChainKernel)
        with pytest.raises(UnsupportedError):
            build_chain_kernel([p_dw], {"tile_h": 4, "tile_w": 4})

    def test_capacity_check_raises_on_tiny_gpu(self, tiny_gpu):
        from repro.errors import CapacityError

        chain = _pdp_chain(h=32)
        params = [make_layer_params(chain.specs[0])]
        for spec in chain.specs[1:]:
            params.append(chain_quant(params[-1], spec))
        kernel = FusedChainKernel(params, tile_h=32, tile_w=32, tile_m=16)
        with pytest.raises(CapacityError):
            kernel.simulate(random_ifm(chain.specs[0]), tiny_gpu)


class TestPairwiseEquivalence:
    """`max_chain=2` must reproduce the pre-chain pairwise planner exactly.

    The legacy planner resolved overlapping pair candidates with a
    networkx maximum-weight matching; on the linear runs the candidates
    form, the interval DP at K=2 computes the same optimum.  This pins the
    plans (steps, tilings, estimates) bit-for-bit on real zoo models.
    """

    @staticmethod
    def _legacy_matching_plan(planner, graph):
        import networkx as nx

        from repro.ir.graph import GlueSpec
        from repro.ir.layers import ConvKind

        decisions = []
        for cand in graph.fusion_candidates():
            try:
                dec = planner.evaluate_chain((cand.first, cand.second))
            except PlanError:
                continue
            if dec is not None and dec.est_savings_bytes > 0:
                decisions.append(dec)
        m = nx.Graph()
        for i, dec in enumerate(decisions):
            first, second = dec.specs
            m.add_edge(first.name, second.name, weight=dec.est_savings_bytes, idx=i)
        chosen = {}
        for u, v in nx.max_weight_matching(m, maxcardinality=False):
            dec = decisions[m.edges[u, v]["idx"]]
            chosen[dec.specs[0].name] = dec
        fused_seconds = {d.specs[1].name for d in chosen.values()}
        steps = []
        for spec in graph.topological():
            if isinstance(spec, GlueSpec):
                steps.append(("glue", spec.name))
                continue
            if spec.name in chosen:
                dec = chosen[spec.name]
                steps.append((
                    "fcm", dec.fcm_type, dec.specs[0].name, dec.specs[1].name,
                    tuple(sorted(dec.tiling.items())), dec.est_gma_bytes,
                ))
                continue
            if spec.name in fused_seconds:
                continue
            if spec.kind is ConvKind.STANDARD:
                steps.append(("std", spec.name))
                continue
            lbl = planner.lbl_plan(spec)
            steps.append((
                "lbl", spec.name, tuple(sorted(lbl.tiling.items())), lbl.gma_bytes,
            ))
        return steps

    @staticmethod
    def _dp_plan_signature(plan):
        from repro.planner.plan import GlueStep, LblStep

        out = []
        for s in plan.steps:
            if isinstance(s, ChainStep):
                assert s.length == 2
                out.append((
                    "fcm", s.fcm_type, s.specs[0].name, s.specs[1].name,
                    tuple(sorted(s.tiling.items())), s.est_gma_bytes,
                ))
            elif isinstance(s, LblStep):
                out.append((
                    "lbl", s.spec.name, tuple(sorted(s.tiling.items())),
                    s.est_gma_bytes,
                ))
            elif isinstance(s, StdStep):
                out.append(("std", s.spec.name))
            elif isinstance(s, GlueStep):
                out.append(("glue", s.spec.name))
        return out

    @pytest.mark.parametrize("model", ["mobilenet_v1", "mobilenet_v2"])
    @pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8])
    def test_zoo_plans_identical_to_matching(self, model, dtype):
        from repro.models.zoo import build_model

        graph = build_model(model, dtype)
        dp = FusePlanner(RTX_A4000, max_chain=2).plan(graph)
        legacy = self._legacy_matching_plan(FusePlanner(RTX_A4000), graph)
        assert self._dp_plan_signature(dp) == legacy


class TestChainServing:
    def test_plan_key_includes_max_chain(self):
        from repro.serve.cache import PlanKey

        a = PlanKey.of("m", DType.FP32, ORIN, "paper", 2)
        b = PlanKey.of("m", DType.FP32, ORIN, "paper", 3)
        assert a != b

    def test_cache_distinguishes_chain_caps(self):
        from repro.serve.cache import PlanCache

        cache = PlanCache(capacity=4)
        e2 = cache.get("mobilenet_v2", DType.INT8, RTX_A4000, max_chain=2)
        e3 = cache.get("mobilenet_v2", DType.INT8, RTX_A4000, max_chain=3)
        assert cache.stats.misses == 2 and cache.stats.planner_invocations == 2
        assert e3.plan.est_total_gma_bytes < e2.plan.est_total_gma_bytes
        assert e3.plan.max_chain_length >= 3
        # Hit path still works per cap.
        again = cache.get("mobilenet_v2", DType.INT8, RTX_A4000, max_chain=3)
        assert again is e3 and cache.stats.hits == 1

    def test_server_serves_chain_plans(self, rng):
        from repro.serve.server import ModelServer

        server = ModelServer(RTX_A4000, max_chain=3)
        rep = server.submit_analytic("mobilenet_v2", batch_size=4, dtype=DType.INT8)
        assert rep.batch_size == 4
        key = server.cache.keys()[0]
        assert key.max_chain == 3
