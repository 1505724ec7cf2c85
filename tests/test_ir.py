"""Tests for the model IR: layer specs, DAG, block builders, importer."""

from __future__ import annotations

import pytest

from repro.core.dtypes import DType
from repro.errors import ShapeError
from repro.ir.blocks import dsc_block, inverted_residual_block, standard_conv
from repro.ir.graph import GlueSpec, ModelGraph
from repro.ir.importer import import_model
from repro.ir.layers import ConvKind, ConvSpec
from repro.models.zoo import build_model, model_names


class TestConvSpec:
    def test_geometry(self):
        s = ConvSpec("c", ConvKind.STANDARD, 3, 32, 224, 224, kernel=3, stride=2, padding=1)
        assert (s.out_h, s.out_w) == (112, 112)
        assert s.weights_shape == (32, 3, 3, 3)
        assert s.macs == 32 * 3 * 9 * 112 * 112

    def test_pw_macs_and_weights(self):
        s = ConvSpec("p", ConvKind.POINTWISE, 64, 128, 56, 56)
        assert s.weights_shape == (128, 64)
        assert s.macs == 128 * 64 * 56 * 56
        assert s.weights_bytes == 128 * 64 * 4

    def test_dw_preserves_channels(self):
        with pytest.raises(ShapeError):
            ConvSpec("d", ConvKind.DEPTHWISE, 8, 16, 10, 10, kernel=3, padding=1)

    def test_pw_kernel_must_be_one(self):
        with pytest.raises(ShapeError):
            ConvSpec("p", ConvKind.POINTWISE, 8, 8, 10, 10, kernel=3)

    def test_with_dtype(self):
        s = ConvSpec("p", ConvKind.POINTWISE, 8, 8, 10, 10)
        assert s.with_dtype(DType.INT8).weights_bytes == 64

    def test_describe(self):
        s = ConvSpec("p", ConvKind.POINTWISE, 8, 16, 10, 10)
        assert "pw 8->16" in s.describe()


class TestModelGraph:
    def test_linear_chain_and_candidates(self):
        g = ModelGraph("m")
        dsc_block(g, "b1", 8, 16, 16, 16)
        dsc_block(g, "b2", 16, 16, 16, 16)
        g.validate()
        names = [(c.first.name, c.second.name) for c in g.fusion_candidates()]
        assert ("b1_dw", "b1_pw") in names
        assert ("b1_pw", "b2_dw") in names  # cross-block PW->DW pair

    def test_duplicate_name_rejected(self):
        g = ModelGraph("m")
        dsc_block(g, "b", 4, 4, 8, 8)
        with pytest.raises(ShapeError):
            dsc_block(g, "b", 4, 4, 8, 8)

    def test_shape_mismatch_detected(self):
        g = ModelGraph("m")
        g.add(ConvSpec("a", ConvKind.POINTWISE, 4, 8, 8, 8))
        g.add(ConvSpec("b", ConvKind.POINTWISE, 16, 4, 8, 8))  # expects 16 chans
        with pytest.raises(ShapeError):
            g.validate()

    def test_multi_consumer_blocks_fusion(self):
        """A PW whose output feeds two consumers must not be a candidate."""
        g = ModelGraph("m")
        p = g.add(ConvSpec("p", ConvKind.POINTWISE, 4, 8, 8, 8))
        g.add(ConvSpec("d", ConvKind.DEPTHWISE, 8, 8, 8, 8, kernel=3, padding=1), after=p)
        g.add(GlueSpec("branch", "noop", 8 * 8 * 8), after=p)
        firsts = [c.first.name for c in g.fusion_candidates()]
        assert "p" not in firsts

    def test_standard_conv_never_candidate(self):
        g = ModelGraph("m")
        standard_conv(g, "s", 3, 8, 16, 16)
        dsc_block(g, "b", 8, 8, 16, 16)
        firsts = [c.first.name for c in g.fusion_candidates()]
        assert "s" not in firsts

    def test_unknown_layer_lookup(self):
        g = ModelGraph("m")
        with pytest.raises(ShapeError):
            g.spec("nope")
        with pytest.raises(ShapeError):
            g.successors("nope")

    def test_validate_rechecks_after_add(self):
        g = ModelGraph("m")
        g.add(ConvSpec("a", ConvKind.POINTWISE, 4, 8, 8, 8))
        g.add(ConvSpec("b", ConvKind.POINTWISE, 8, 4, 8, 8))
        g.validate()
        g.add(ConvSpec("c", ConvKind.POINTWISE, 16, 4, 8, 8))  # expects 16 chans
        with pytest.raises(ShapeError, match="b->c"):
            g.validate()

    def test_fusion_runs_rederived_after_add(self):
        g = ModelGraph("m")
        dsc_block(g, "b1", 8, 16, 16, 16)
        assert [[s.name for s in r] for r in g.fusion_runs()] == [["b1_dw", "b1_pw"]]
        dsc_block(g, "b2", 16, 16, 16, 16)
        assert [[s.name for s in r] for r in g.fusion_runs()] == [
            ["b1_dw", "b1_pw", "b2_dw", "b2_pw"]
        ]

    def test_graph_dtype_is_first_conv_precision(self):
        g = ModelGraph("m")
        g.add(GlueSpec("in", "noop", 64))
        assert g.dtype is None
        g.add(ConvSpec("a", ConvKind.POINTWISE, 4, 8, 8, 8, dtype=DType.INT8))
        g.add(ConvSpec("b", ConvKind.POINTWISE, 8, 8, 8, 8))
        assert g.dtype is DType.INT8


def _recorded(monkeypatch) -> list:
    """Record every ``ModelGraph.add`` call as (graph, spec, after)."""
    log: list = []
    add = ModelGraph.add

    def recording(self, spec, after=None):
        log.append((self, spec, after))
        return add(self, spec, after)

    monkeypatch.setattr(ModelGraph, "add", recording)
    return log


def _networkx_view(graph: ModelGraph, log: list) -> dict:
    """What the graph answered when it was stored as a networkx ``DiGraph``
    and sorted with the keyed lexicographic sort: replays ``graph``'s add
    calls from ``log`` and derives every answer the networkx way."""
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    order: list[str] = []
    for owner, spec, after in log:
        if owner is not graph:
            continue
        if after is None:
            preds = order[-1:]
        else:
            preds = [after] if isinstance(after, str) else list(after)
        g.add_node(spec.name, spec=spec)
        for p in preds:
            g.add_edge(p, spec.name)
        order.append(spec.name)
    assert nx.is_directed_acyclic_graph(g)
    topo = [g.nodes[n]["spec"] for n in nx.lexicographical_topological_sort(g, key=order.index)]
    succ = {n: sorted(g.successors(n), key=order.index) for n in order}
    pred = {n: sorted(g.predecessors(n), key=order.index) for n in order}

    def fusable(first, second) -> bool:
        return (
            all(isinstance(s, ConvSpec) and s.kind is not ConvKind.STANDARD
                for s in (first, second))
            and (first.kind, second.kind) != (ConvKind.DEPTHWISE, ConvKind.DEPTHWISE)
        )

    next_of = {
        n: succ[n][0]
        for n in order
        if len(succ[n]) == 1 and len(pred[succ[n][0]]) == 1
        and fusable(g.nodes[n]["spec"], g.nodes[succ[n][0]]["spec"])
    }
    runs = []
    for n in order:
        if n in next_of and n not in next_of.values():
            run = [n]
            while run[-1] in next_of:
                run.append(next_of[run[-1]])
            runs.append([g.nodes[m]["spec"] for m in run])
    return {
        "topological": topo,
        "conv_layers": [s for s in topo if isinstance(s, ConvSpec)],
        "successors": succ,
        "predecessors": pred,
        "fusion_runs": runs,
    }


def _assert_matches_networkx(graph: ModelGraph, log: list) -> None:
    ref = _networkx_view(graph, log)
    assert list(graph.topological()) == ref["topological"]
    assert graph.conv_layers() == ref["conv_layers"]
    assert len(graph) == len(ref["topological"])
    for name in ref["successors"]:
        assert graph.successors(name) == ref["successors"][name], name
        assert graph.predecessors(name) == ref["predecessors"][name], name
    assert graph.fusion_runs() == ref["fusion_runs"]


class TestGraphMatchesNetworkx:
    """The insertion-ordered graph answers exactly what the networkx
    ``DiGraph`` and its keyed lexicographic sort answered."""

    @pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8])
    @pytest.mark.parametrize("model", model_names())
    def test_zoo_models(self, model, dtype, monkeypatch):
        log = _recorded(monkeypatch)
        graph = build_model(model, dtype)
        _assert_matches_networkx(graph, log)

    def test_imported_model(self, monkeypatch):
        log = _recorded(monkeypatch)
        graph = import_model({
            "name": "t",
            "input": [8, 16, 16],
            "layers": [
                {"op": "conv", "kind": "pw", "out_channels": 16},
                {"op": "conv", "kind": "dw", "kernel": 3, "stride": 2},
                {"op": "conv", "kind": "pw", "out_channels": 32},
                {"op": "glue", "glue": "gap"},
            ],
        })
        _assert_matches_networkx(graph, log)

    def test_out_of_order_and_repeated_predecessors(self, monkeypatch):
        log = _recorded(monkeypatch)
        g = ModelGraph("dag")
        g.add(ConvSpec("a", ConvKind.POINTWISE, 4, 8, 8, 8))
        g.add(ConvSpec("b", ConvKind.DEPTHWISE, 8, 8, 8, 8, kernel=3, padding=1))
        g.add(GlueSpec("side", "noop", 8 * 8 * 8), after="a")
        # Out of insertion order, with a predecessor repeated.
        g.add(GlueSpec("join", "add", 8 * 8 * 8), after=["side", "b", "side", "a"])
        g.add(ConvSpec("c", ConvKind.POINTWISE, 8, 8, 8, 8))
        g.add(ConvSpec("d", ConvKind.DEPTHWISE, 8, 8, 8, 8, kernel=3, padding=1), after=["c", "c"])
        g.add(ConvSpec("e", ConvKind.POINTWISE, 8, 4, 8, 8))
        g.validate()
        assert g.predecessors("join") == ["a", "b", "side"]
        assert g.successors("a") == ["b", "side", "join"]
        assert [[s.name for s in r] for r in g.fusion_runs()] == [["c", "d", "e"]]
        _assert_matches_networkx(g, log)


class TestInvertedResidual:
    def test_residual_add_created(self):
        g = ModelGraph("m")
        first = standard_conv(g, "stem", 3, 16, 32, 32)
        last = inverted_residual_block(g, "ir", 16, 16, 32, 32, stride=1, after=first)
        assert last == "ir_add"
        add = g.spec("ir_add")
        assert isinstance(add, GlueSpec) and add.op == "add"
        assert set(g.predecessors("ir_add")) == {"stem", "ir_pw_proj"}

    def test_no_residual_on_stride2(self):
        g = ModelGraph("m")
        first = standard_conv(g, "stem", 3, 16, 32, 32)
        last = inverted_residual_block(g, "ir", 16, 16, 32, 32, stride=2, after=first)
        assert last == "ir_pw_proj"

    def test_expansion_one_skips_first_pw(self):
        g = ModelGraph("m")
        first = standard_conv(g, "stem", 3, 16, 32, 32)
        inverted_residual_block(g, "ir", 16, 24, 32, 32, expansion=1, after=first)
        assert "ir_pw_exp" not in g
        assert "ir_dw" in g

    def test_projection_pw_is_linear(self):
        g = ModelGraph("m")
        first = standard_conv(g, "stem", 3, 16, 32, 32)
        inverted_residual_block(g, "ir", 16, 24, 32, 32, after=first)
        proj = g.spec("ir_pw_proj")
        assert proj.epilogue.activation is None


class TestImporter:
    def test_import_and_shapes(self):
        g = import_model(
            {
                "name": "t",
                "input": [8, 16, 16],
                "layers": [
                    {"op": "conv", "kind": "dw", "kernel": 3, "stride": 2},
                    {"op": "conv", "kind": "pw", "out_channels": 32},
                    {"op": "glue", "glue": "gap"},
                ],
            }
        )
        convs = g.conv_layers()
        assert convs[0].out_h == 8
        assert convs[1].in_channels == 8 and convs[1].out_channels == 32

    def test_dtype_applied(self):
        g = import_model(
            {"name": "t", "input": [4, 8, 8],
             "layers": [{"op": "conv", "kind": "pw", "out_channels": 8}]},
            dtype=DType.INT8,
        )
        assert g.conv_layers()[0].dtype is DType.INT8

    def test_malformed(self):
        with pytest.raises(ShapeError):
            import_model({"name": "x", "layers": []})
        with pytest.raises(ShapeError):
            import_model({"name": "x", "input": [1, 2, 3],
                          "layers": [{"op": "warp"}]})
