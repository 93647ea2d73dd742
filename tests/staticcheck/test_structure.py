"""Pass 1 (structure analyzer) — positive certification and negatives."""

import pytest

from repro.core.bitonic import bitonic_depth, bitonic_network
from repro.core.cut import Cut
from repro.core.decomposition import DecompositionTree
from repro.core.network import BalancingNetwork
from repro.core.periodic import periodic_depth, periodic_network
from repro.core.wiring import MergerConvention
from repro.ext.periodic_adaptive import PeriodicWiring, block_level_cut_paths, periodic_tree
from repro.staticcheck import (
    certify_01_principle,
    check_balancing_network,
    check_counting_tree,
    check_cut_network,
    check_wiring,
)

WIDTHS = [2, 4, 8]


class TestBalancingNetworks:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_bitonic_certified(self, width):
        report = check_balancing_network(
            bitonic_network(width),
            source="BITONIC[%d]" % width,
            expected_depth=bitonic_depth(width),
        )
        assert report.ok, report.format()

    @pytest.mark.parametrize("width", WIDTHS)
    def test_periodic_certified(self, width):
        report = check_balancing_network(
            periodic_network(width),
            source="PERIODIC[%d]" % width,
            expected_depth=periodic_depth(width),
        )
        assert report.ok, report.format()

    def test_miswired_duplicate_wire_in_layer(self):
        # Raw wiring data the BalancingNetwork constructor would reject:
        # wire 1 has two producers in one layer.
        report = check_wiring(4, [[(0, 1), (1, 2)]], [0, 1, 2, 3], source="bad.net")
        assert not report.ok
        assert "RSC101" in report.codes()
        assert any("bad.net" in d.source for d in report)

    def test_miswired_out_of_range_wire(self):
        report = check_wiring(4, [[(0, 9)]], [0, 1, 2, 3])
        assert "RSC101" in report.codes()

    def test_miswired_output_order_not_permutation(self):
        report = check_wiring(4, [[(0, 1)]], [0, 1, 2, 2])
        assert "RSC102" in report.codes()

    def test_degenerate_balancer_flagged(self):
        report = check_wiring(4, [[(2, 2)]], [0, 1, 2, 3])
        assert "RSC101" in report.codes()

    def test_non_sorting_network_fails_01_certification(self):
        # Drop the final merger layer from BITONIC[4]: structurally
        # well-formed, but no longer a counting network.
        full = bitonic_network(4)
        crippled = BalancingNetwork(4, full.layers[:-1], full.output_order)
        report = certify_01_principle(crippled, source="crippled")
        assert not report.ok
        assert report.codes() == ["RSC105"]
        assert "sorts to" in report.diagnostics[0].message

    def test_wrong_expected_depth_flagged(self):
        report = check_balancing_network(
            bitonic_network(4), expected_depth=bitonic_depth(4) + 1, certify=False
        )
        assert "RSC106" in report.codes()

    def test_width_beyond_limit_warns_not_fails(self):
        report = certify_01_principle(bitonic_network(8), max_width=4)
        assert report.ok  # warnings only
        assert "RSC108" in report.codes()


class TestCutNetworks:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("kind", ["singleton", "level1", "full"])
    def test_bitonic_cuts_pass_all_checks(self, width, kind):
        tree = DecompositionTree(width)
        if kind == "singleton":
            cut = Cut.singleton(tree)
        elif tree.max_level < 1:
            pytest.skip("T_2 has only the singleton cut")
        elif kind == "level1":
            cut = Cut.level(tree, 1)
        else:
            cut = Cut.leaves(tree)
        report = check_cut_network(cut)
        assert report.ok, report.format()

    @pytest.mark.parametrize("width", [4, 8])
    def test_periodic_adaptive_block_cut_passes(self, width):
        tree = periodic_tree(width)
        cut = Cut(tree, block_level_cut_paths(tree))
        report = check_cut_network(
            cut, wiring=PeriodicWiring(tree), check_bounds=False
        )
        assert report.ok, report.format()

    def test_paper_prose_miswiring_rejected(self):
        # The known paper typo: structurally fine, but not a counting
        # network — the certification pass must catch it.
        tree = DecompositionTree(4)
        report = check_cut_network(
            Cut.leaves(tree), convention=MergerConvention.PAPER_PROSE
        )
        assert not report.ok
        assert "RSC105" in report.codes()

    def test_certification_width_limit_warns(self):
        tree = DecompositionTree(4)
        report = check_cut_network(Cut.leaves(tree), max_certify_width=2)
        assert report.ok
        assert "RSC108" in report.codes()


class TestCountingTree:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_diffracting_tree_certified(self, depth):
        report = check_counting_tree(depth)
        assert report.ok, report.format()

    def test_negative_depth_reported(self):
        report = check_counting_tree(-1)
        assert "RSC101" in report.codes()


class TestReportRendering:
    def test_json_roundtrip(self):
        import json

        report = check_wiring(4, [[(0, 9)]], [0, 1, 2, 3], source="bad.net")
        payload = json.loads(report.to_json())
        assert payload["ok"] is False
        assert payload["errors"] >= 1
        assert payload["diagnostics"][0]["code"] == "RSC101"
        assert payload["diagnostics"][0]["source"] == "bad.net"

    def test_format_contains_location_and_code(self):
        report = check_wiring(4, [[(0, 9)]], [0, 1, 2, 3], source="bad.net")
        line = report.format().splitlines()[0]
        assert "bad.net" in line and "RSC101" in line
