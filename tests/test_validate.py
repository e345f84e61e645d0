import dataclasses
import json

import numpy as np
import pytest

from graphharm import cluster, flow, generators, harmonic, spectra, validate
from graphharm.cli import main
from graphharm.graph import GraphError, cut_from_side
from graphharm.validate import brute_force_distance, run_suite, sample_graph


def test_brute_force_matches_path_resistance():
    g = generators.path(3)
    assert brute_force_distance(g, 1, 0, 2) ** 2 == pytest.approx(2.0, abs=1e-12)


def test_validate_only_oracles_live_in_validate():
    import graphharm
    from graphharm import graph

    for name in ("bridges", "min_norm_certificate", "rtot_derivative_check"):
        assert callable(getattr(validate, name))
        assert all(not hasattr(module, name) for module in (graphharm, graph, flow, harmonic, spectra, cluster))
    assert not hasattr(harmonic, "resistance_matrix")
    assert [f.name for f in dataclasses.fields(harmonic.EdgeScores)] == ["values"]


def test_brute_force_matches_spectral_route():
    g = sample_graph("er_weighted", 12, seed=5)
    dec = harmonic.decomposition(g)
    for k in (1, 2, 3, 5):
        M = spectra.pinv_power(dec, float(k))
        for s, t in [(0, 1), (2, 9), (4, 11)]:
            spectral = np.sqrt(spectra.quadratic_reads(M, s, t))
            assert brute_force_distance(g, k, s, t) == pytest.approx(spectral, rel=1e-8)


def test_sample_graph_is_deterministic():
    for family in validate.FAMILIES:
        a = sample_graph(family, 14, seed=3)
        b = sample_graph(family, 14, seed=3)
        assert a.edges == b.edges


def test_sample_graph_names_an_unknown_family():
    with pytest.raises(GraphError, match="unknown family 'cycle'"):
        sample_graph("cycle", 14, seed=3)


def test_run_suite_small_config_passes():
    names = ["foster", "potentials", "sweep_separation", "spectral_reads", "betweenness", "pinv_updates"]
    reports = run_suite(names, n_range=(8, 16), trials=5, seed=1)
    assert [r.name for r in reports] == names
    assert all(r.passed for r in reports)


def test_run_suite_rejects_unknown_check():
    with pytest.raises(GraphError, match="unknown check"):
        run_suite(["fosterr"])


def test_report_serialization_and_table():
    reports = run_suite(["foster"], n_range=(8, 12), trials=2, seed=0)
    d = reports[0].to_dict()
    assert d["name"] == "foster" and d["passed"] is True
    table = validate.format_report_table(reports)
    assert "foster" in table and "pass" in table


def test_oracle_reports_its_worst_comparison():
    # the pairs `_check_oracle` samples on the default instances, compared
    # here as |spectral - oracle| / oracle
    expected = 0.0
    for _, g in validate._graphs(20, 10, 60, 0, validate.FAMILIES, 25, {}):
        dec = harmonic.decomposition(g)
        rng = np.random.default_rng(3 * g.n + g.m)
        for k in (1, 2, 3, 5):
            M = spectra.pinv_power(dec, float(k))
            for _ in range(4):
                s, t = (int(x) for x in rng.choice(g.n, size=2, replace=False))
                spectral = np.sqrt(spectra.quadratic_reads(M, s, t))
                oracle = brute_force_distance(g, k, s, t)
                expected = max(expected, abs(spectral - oracle) / oracle)
    (report,) = run_suite(["oracle"])
    assert expected > 1e-13
    assert report.worst_rel == pytest.approx(expected, rel=1e-2, abs=0.0)
    assert report.worst_abs == report.worst_rel


def test_reducer_keeps_the_largest_relative_gap(monkeypatch):
    # the larger absolute gap (1 against 100) is the smaller relative one
    def check(g):
        return np.array([101.0, 1.5]), np.array([100.0, 1.0])

    monkeypatch.setitem(validate.CHECKS, "synthetic", (check, 0.1, ("er",), 12))
    (report,) = run_suite(["synthetic"], trials=2)
    assert (report.worst_abs, report.worst_rel, report.passed) == (1.0, 0.5, False)


def test_reducer_keeps_the_worst_instance(monkeypatch):
    def check(g):
        return 1.0 + 1e-3 * (g.m == g.n - 1), 1.0  # only the trees deviate

    monkeypatch.setitem(validate.CHECKS, "synthetic", (check, 1e-2, ("tree", "er"), None))
    (report,) = run_suite(["synthetic"], n_range=(11, 12), trials=4)
    assert (report.family, report.passed) == ("tree", True)
    assert report.worst_rel == pytest.approx(1e-3, rel=1e-9, abs=0.0)


def test_a_nan_comparison_fails(monkeypatch):
    monkeypatch.setitem(validate.CHECKS, "synthetic", (lambda g: (np.array([0.0, np.nan]), 0.0), 1.0, ("er",), 12))
    (report,) = run_suite(["synthetic"], trials=3)
    assert np.isnan(report.worst_rel) and not report.passed


def test_every_check_returns_two_sides_that_broadcast():
    for name, (fn, _, families, max_n) in validate.CHECKS.items():
        lhs, rhs = (np.asarray(side, dtype=float) for side in fn(sample_graph(families[0], min(12, max_n or 12), 0)))
        assert np.broadcast(lhs, rhs).ndim <= 1, name


def test_json_report_keys_are_pinned(capsys):
    assert main(["validate", "--suite", "foster", "--trials", "1", "--json"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["family", "name", "passed", "seed", "threshold", "worst_abs", "worst_rel"]


ALL = ("er", "tree", "er_weighted", "tree_weighted", "sbm")
UNWEIGHTED = ("er", "tree", "sbm")

# name -> (threshold, families, max_n): the certified surface
CHECK_TABLE = {
    "foster": (1e-8, ALL, None),
    "down_laplacian": (1e-8, ALL, 60),
    "flow_identity": (1e-8, ALL, 30),
    "cut_edge": (1e-9, ("tree", "sbm", "er"), None),
    "sparse_cut": (1e-8, UNWEIGHTED, 40),
    "sweep_separation": (0.0, UNWEIGHTED, 30),
    "derivative": (1e-5, ("er_weighted", "tree_weighted"), 40),
    "deletion": (1e-8, ("er",), 20),
    "bounds": (1e-12, UNWEIGHTED, 60),
    "tightness": (1e-9, ("er",), 10),
    "potentials": (1e-8, ALL, None),
    "betweenness": (1e-12, ALL, 20),
    "oracle": (1e-6, ALL, 25),
    "spectral_reads": (1e-10, ALL, 30),
    "pinv_updates": (1e-10, ALL, 10),
}


def test_check_table_is_pinned():
    assert {name: entry[1:] for name, entry in validate.CHECKS.items()} == CHECK_TABLE


def test_default_run_suite_passes_every_check():
    # the call `graphharm validate --json` makes at its defaults
    reports = run_suite()
    assert [r.name for r in reports] == sorted(CHECK_TABLE)
    assert [r.name for r in reports if not r.passed] == []


def _bumped(original, at_k=None):
    """`original` with its output scaled by 1 + 1e-6, or only at k = at_k."""
    def bumped(g, *args):
        out = original(g, *args)
        if at_k is not None and args[0] != at_k:
            return out
        return dataclasses.replace(out, values=out.values * (1 + 1e-6)) if hasattr(out, "values") else out * (1 + 1e-6)
    return bumped


def _worst_level(original):
    """A sweep cut at the level of largest ratio instead of smallest."""
    def worst(g, x):
        x = cluster._sweep_levels(g, x)
        return max((cut_from_side(g, np.flatnonzero(x >= t)) for t in np.unique(x)[1:]), key=lambda cut: cut.ratio)
    return worst


def _no_crossing(original):
    """A cut that reports no crossing edge."""
    return lambda g, side: dataclasses.replace(original(g, side), crossing_edges=())


# a comparison that the merge moved -> (module, route, wrapper, the check that now makes it)
MOVED = {
    "biharmonic_foster": (harmonic, "total_resistance", _bumped, "foster"),
    "kharmonic_foster": (harmonic, "kharmonic_sq_matrix", _bumped, "foster"),
    "flow_identity": (flow, "current_flow_centrality", _bumped, "flow_identity"),
    "flow_edge_sums": (harmonic, "edge_kharmonic_sq", lambda f: _bumped(f, at_k=1.0), "flow_identity"),
    "flow_pair_sums": (harmonic, "kharmonic_sq_matrix", _bumped, "flow_identity"),
    "cut_edge_resistance": (harmonic, "edge_kharmonic_sq", lambda f: _bumped(f, at_k=1.0), "cut_edge"),
    "flows": (flow, "st_flow", _bumped, "potentials"),
    "cut_flow": (validate, "cut_from_side", _no_crossing, "potentials"),
    "sweep_cut": (cluster, "sweep_cut", _worst_level, "sweep_separation"),
}


@pytest.mark.parametrize("moved", sorted(MOVED))
def test_merged_check_keeps_the_comparison(monkeypatch, moved):
    # a route that only the moved comparison reads, perturbed, fails the
    # check that now holds it
    module, route, wrap, check = MOVED[moved]
    (report,) = run_suite([check], n_range=(10, 16), trials=5)
    assert report.passed
    monkeypatch.setattr(module, route, wrap(getattr(module, route)))
    (report,) = run_suite([check], n_range=(10, 16), trials=5)
    assert not report.passed
