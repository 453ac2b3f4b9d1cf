import json
import re

import numpy as np
import pytest

import netar.io as nio
from netar import (
    AdjacencySeries,
    FlipNetwork,
    InnovationSpec,
    LnarSpec,
    MarkovEdgeNetwork,
    NarSpec,
    NeighborhoodFn,
    fit_lnar,
    fit_nar,
    fit_var,
    sample_acf,
)
from netar.cli import main
from netar.depmeas import estimate_delta_network
from netar.estimate import ModelFit, fit_component_ls
from netar.forecast import ForecastSet, HoldLast, forecast_h
from netar.harness import ingest_panel


class TestAdjacencyRoundtrip:
    def test_csv_roundtrip_with_zero_snapshots(self, tmp_path):
        mats = np.zeros((4, 3, 3))
        mats[0, 0, 1] = 0.5
        mats[2, 2, 0] = -0.25
        # snapshot 1 and 3 are entirely zero and must survive the roundtrip
        ads = AdjacencySeries(mats)
        path = tmp_path / "net.csv"
        nio.write_adjacency_csv(path, ads)
        back = nio.read_adjacency_csv(path)
        assert np.array_equal(back.mats, mats)

    def test_csv_recovers_dimension_from_anchor_row(self, tmp_path):
        mats = np.zeros((2, 4, 4))
        mats[0, 0, 1] = 1.0  # vertex 4 never touched by an edge
        ads = AdjacencySeries(mats)
        path = tmp_path / "net.csv"
        nio.write_adjacency_csv(path, ads)
        assert nio.read_adjacency_csv(path).d == 4

    @pytest.mark.parametrize("write", [nio.write_adjacency_json, nio.write_adjacency_csv],
                             ids=["json", "csv"])
    def test_bool_series_writes_the_bytes_of_its_float_copy(self, tmp_path, write):
        on = MarkovEdgeNetwork(np.full((3, 3), 0.7), np.full((3, 3), 0.3)).simulate(9, seed=2)
        assert on.mats.dtype == bool
        write(tmp_path / "bool", on)
        write(tmp_path / "float", AdjacencySeries(on.mats.astype(float)))
        assert (tmp_path / "bool").read_bytes() == (tmp_path / "float").read_bytes()

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        ads = AdjacencySeries(rng.uniform(-1, 1, (5, 2, 2)))
        path = tmp_path / "net.json"
        nio.write_adjacency_json(path, ads)
        back = nio.read_adjacency_json(path)
        assert np.allclose(back.mats, ads.mats)

    @pytest.mark.parametrize("doc, where", [
        ({"t": 0, "rows": [[0.0]]}, "must be a list"),
        ([{"t": 0, "rows": [[0, 1], [1, 0]]}, {"rows": [[0, 1], [1, 0]]}], "entry 1: t must"),
        ([{"t": 0.5, "rows": [[0.0]]}], "entry 0: t must"),
        ([{"t": 0, "rows": [[0, 1], [1]]}], "snapshot t=0: rows"),
        ([{"t": 0, "rows": [[0, 1]]}], "snapshot t=0: rows"),
        ([{"t": 0, "rows": [[0, 1], [1, 0]]}, {"t": 1, "rows": [[0]]}], "snapshot t=1: rows"),
    ], ids=["not_a_list", "entry_without_t", "non_integer_t", "ragged_rows",
            "non_square_rows", "snapshot_of_another_size"])
    def test_malformed_json_names_the_snapshot(self, doc, where, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(where)):
            nio.read_adjacency_json(path)

    def test_non_contiguous_times_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("t,i,j,w\n0,1,1,1\n2,1,1,1\n")
        with pytest.raises(ValueError, match="contiguous"):
            nio.read_adjacency_csv(path)


class TestSeriesRoundtrip:
    def test_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 17)) * 1e6
        path = tmp_path / "series.csv"
        nio.write_series_csv(path, x)
        back = nio.read_series_csv(path)
        assert np.array_equal(back, x)

    def test_readers_keep_only_the_order_of_labels_from_any_start(self, tmp_path):
        series, net = tmp_path / "series.csv", tmp_path / "net.json"
        series.write_text("t,x1\n5,1.0\n6,2.0\n")
        assert np.array_equal(nio.read_series_csv(series), [[1.0, 2.0]])
        net.write_text(json.dumps([{"t": -2, "rows": [[0.5]]}, {"t": -3, "rows": [[0.25]]}]))
        assert np.array_equal(nio.read_adjacency_json(net).mats, [[[0.25]], [[0.5]]])

    def test_non_finite_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,x1,x2\n0,1.0,2.0\n1,3.0,nan\n2,4.0,5.0\n")
        with pytest.raises(ValueError, match="row t=1, column x2"):
            nio.read_series_csv(path)

    @pytest.mark.parametrize("text, row", [
        ("t,x1\n0,1.0\n5,2.0\n", "row t=5"),  # a gap: t=5 does not follow t=0
        ("t,x1\n0.5,1.0\n1.5,2.0\n", "row t=0.5"),
    ], ids=["gap", "non_integer"])
    def test_t_labels_must_be_consecutive_integers(self, text, row, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"series file: {row}: ")):
            nio.read_series_csv(path)

    def test_non_finite_network_weight_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("t,i,j,w\n0,1,2,1\n0,2,2,0\n1,2,1,nan\n1,2,2,0\n")
        with pytest.raises(ValueError, match="snapshot 1, entry \\(2, 1\\)"):
            nio.read_adjacency_csv(path)


# one well-formed table per kind; every fault hits the second data row's last cell
_TABLES = {
    "series": ("t,x1,x2\n0,1,2\n1,3,4\n", "row t=1", "x2"),
    "levels": ("t,A,B\n2000Q1,1,2\n2000Q2,3,4\n2000Q3,5,6\n", "quarter 2000Q2", "B"),
    "trade": ("w,A,B\nA,0,1\nB,2,0\n", "year 2000, row B", "B"),
}


def _read_kind(kind, text, tmp_path):
    path = tmp_path / f"{kind}.csv"
    path.write_text(text)
    if kind == "series":
        return nio.read_series_csv(path)
    levels, trade = tmp_path / "levels_ok.csv", tmp_path / "trade_ok.csv"
    levels.write_text(_TABLES["levels"][0])
    trade.write_text(_TABLES["trade"][0])
    if kind == "levels":
        return ingest_panel(path, {2000: str(trade)})
    return ingest_panel(levels, {2000: str(path)})


def _fault_second_row(text, fault):
    lines = text.splitlines()
    cells = lines[2].split(",")
    if fault == "short":
        cells = cells[:-1]
    elif fault == "long":
        cells = cells + ["7"]
    else:
        cells[-1] = {"non_numeric": "abc", "non_finite": "inf"}[fault]
    lines[2] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TestNumericTables:
    @pytest.mark.parametrize("kind", sorted(_TABLES))
    def test_well_formed_tables_read(self, kind, tmp_path):
        _read_kind(kind, _TABLES[kind][0], tmp_path)

    @pytest.mark.parametrize("kind", sorted(_TABLES))
    @pytest.mark.parametrize("fault", ["empty", "short", "long", "non_numeric", "non_finite"])
    def test_malformed_table_names_row_and_column(self, kind, fault, tmp_path):
        text, row, col = _TABLES[kind]
        # the levels table is named by its cells, "level"
        name = {"levels": "level"}.get(kind, kind)
        message = {
            "empty": f"empty {name} file",
            "short": f"{name} file: {row} has 2 cells, the header 3",
            "long": f"{name} file: {row} has 4 cells, the header 3",
            "non_numeric": f"non-numeric {name} cell in {row}, column {col}: 'abc'",
            "non_finite": f"non-finite {name} cell in {row}, column {col}",
        }[fault]
        text = "" if fault == "empty" else _fault_second_row(text, fault)
        with pytest.raises(ValueError, match=re.escape(message)):
            _read_kind(kind, text, tmp_path)


class TestNetworkCsvRows:
    @pytest.mark.parametrize("text, message", [
        ("t,i,j,w\n0,0,2,1\n0,3,3,0\n", "line 2: vertex indices start at 1, found (0, 2)"),
        ("t,i,j,w\n0,1,2,1\n0,1,2,1,9\n", "line 3: expected 4 cells t,i,j,w, found 5"),
        ("t,i,j,w\n0,1,2\n", "line 2: expected 4 cells t,i,j,w, found 3"),
        ("t,i,j,w\n0,1,2,x\n", "line 2: t, i, j must be integers and w a number, "
                               "found ['0', '1', '2', 'x']"),
        ("t,i,j,w\n0,1.5,2,1\n", "line 2: t, i, j must be integers and w a number"),
        ("", "empty network file"),
    ], ids=["vertex_zero", "five_cells", "three_cells", "non_numeric_w", "non_integer_i",
            "empty"])
    def test_malformed_row_names_the_line(self, text, message, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            nio.read_adjacency_csv(path)


class TestModelSpecJson:
    def test_nar_roundtrip(self, tmp_path):
        spec = NarSpec(2, [np.eye(3) * 0.3, np.eye(3) * 0.1],
                       [NeighborhoodFn.transpose(), NeighborhoodFn.sign_poly(2)])
        innov = InnovationSpec(np.array([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, 3.0]))
        path = tmp_path / "spec.json"
        nio.write_model_spec(path, spec, innov)
        back, innov2 = nio.read_model_spec(path)
        assert isinstance(back, NarSpec) and back.p == 2
        assert np.array_equal(back.A[0], spec.A[0])
        assert back.G == spec.G
        assert np.array_equal(innov2.sigma, innov.sigma)

    def test_lnar_roundtrip_with_banded_sigma(self, tmp_path):
        innov = InnovationSpec.banded1(np.zeros(4), np.ones(4), 0.25 * np.ones(3))
        spec = LnarSpec(1, np.full((1, 4), 0.2), np.full((1, 4), 0.3),
                        [NeighborhoodFn.row_normalized_transpose()])
        path = tmp_path / "spec.json"
        nio.write_model_spec(path, spec, innov)
        back, innov2 = nio.read_model_spec(path)
        assert isinstance(back, LnarSpec)
        assert np.array_equal(back.alpha, spec.alpha)
        assert np.array_equal(innov2.sigma, innov.sigma)
        doc = json.loads(path.read_text())
        assert doc["innov"]["sigma"]["kind"] == "banded1"


class TestModelSpecNonFinite:
    def test_nan_mu_names_the_entry(self):
        spec = NarSpec(1, [np.eye(2) * 0.3], [NeighborhoodFn.transpose()])
        doc = nio.model_spec_to_json(spec, InnovationSpec.standard(2))
        doc["innov"]["mu"][1] = float("nan")
        with pytest.raises(ValueError, match=r"mu must be finite; found nan at entry \(2\)"):
            nio.model_spec_from_json(json.loads(json.dumps(doc)))
        doc["innov"]["mu"][1] = 0.0
        doc["innov"]["sigma"] = {"kind": "diagonal", "values": [1.0, float("inf")]}
        with pytest.raises(ValueError, match=r"sigma must be finite; found inf at entry \(2, 2\)"):
            nio.model_spec_from_json(json.loads(json.dumps(doc)))


    @pytest.mark.parametrize("key, at, entry", [("A", (1, 0, 1), "lag 2, entry (1, 2)"),
                                               ("alpha", (0, 1), "lag 1, entry (2)"),
                                               ("beta", (0, 0), "lag 1, entry (1)")],
                             ids=["A", "alpha", "beta"])
    def test_nan_coefficient_names_key_lag_and_entry(self, key, at, entry):
        g = NeighborhoodFn.transpose()
        spec = (NarSpec(2, [np.eye(2) * 0.3, np.eye(2) * 0.1], [g, g]) if key == "A"
                else LnarSpec(1, np.full((1, 2), 0.2), np.full((1, 2), 0.3), [g]))
        doc = nio.model_spec_to_json(spec, InnovationSpec.standard(2))
        cells = doc[key]
        for k in at[:-1]:
            cells = cells[k]
        cells[at[-1]] = float("nan")
        with pytest.raises(ValueError, match=re.escape(
                f"{key} must be finite; found nan at {entry}")):
            nio.model_spec_from_json(json.loads(json.dumps(doc)))

    def test_nan_mask_weight_names_the_entry(self):
        spec = NarSpec(1, [np.eye(2) * 0.3], [NeighborhoodFn.mask(np.eye(2) * 0.5)])
        doc = nio.model_spec_to_json(spec, InnovationSpec.standard(2))
        doc["G"][0]["w"][0][1] = float("nan")
        with pytest.raises(ValueError, match=r"mask weights must be finite and lie in "
                                             r"\[-1, 1\]; found nan at entry \(1, 2\)"):
            nio.model_spec_from_json(json.loads(json.dumps(doc)))


class TestNetworkModelJson:
    def test_markov_roundtrip(self):
        m = MarkovEdgeNetwork(np.full((2, 2), 0.9), np.full((2, 2), 0.1),
                              initial=np.ones((2, 2)))
        back = nio.network_model_from_json(nio.network_model_to_json(m))
        assert np.array_equal(back.stay_prob, m.stay_prob)
        assert np.array_equal(back.initial, m.initial)

    def test_flip_roundtrip(self):
        back = nio.network_model_from_json(nio.network_model_to_json(FlipNetwork(0.9, 1)))
        assert back.persist_prob == 0.9 and back.initial == 1

    @pytest.mark.parametrize("key, name", [("stay", "stay_prob"), ("enter", "enter_prob")])
    def test_markov_nan_probability_names_the_entry(self, key, name):
        doc = nio.network_model_to_json(
            MarkovEdgeNetwork(np.full((2, 2), 0.9), np.full((2, 2), 0.1)))
        doc[key][0][1] = float("nan")
        with pytest.raises(ValueError, match=rf"{name} .* found nan at entry \(1, 2\)"):
            nio.network_model_from_json(json.loads(json.dumps(doc)))

    def test_density_matched_from_json(self):
        m = nio.network_model_from_json(
            {"kind": "density_matched", "d": 10, "mean_density": 0.5, "persistence": 0.9})
        assert np.allclose(m.stay_prob, 0.95)


class TestFitJson:
    def test_roundtrip_preserves_forecasts(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 80))
        fit = fit_var(x, 2)
        path = tmp_path / "fit.json"
        nio.write_fit_json(path, fit)
        back = nio.read_fit_json(path)
        assert back.family == "var" and back.p == 2
        for a, b in zip(fit.coefficient_matrices(), back.coefficient_matrices()):
            assert np.array_equal(a, b)
        assert np.array_equal(fit.mu_hat(), back.mu_hat())
        assert back.components[0].members == fit.components[0].members

    def test_certified_var_fit_roundtrips_as_strict_json(self):
        # a certified fit reports its certifying Gram's condition number,
        # which must stay finite for a strict JSON document
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 120))
        mask = (rng.random((4, 8)) < 0.7).astype(float)
        fit = fit_var(x, 2, mask=mask)
        back = nio.fit_from_json(json.loads(json.dumps(nio.fit_to_json(fit), allow_nan=False)))
        for c, b in zip(fit.components, back.components):
            assert np.isfinite(c.gram_cond) and b.gram_cond == c.gram_cond
            assert b.members == c.members and b.mu == c.mu and b.rss == c.rss
            for name in ("w", "gamma_y0", "asymp_cov"):
                assert np.array_equal(getattr(b, name), getattr(c, name)), name

    @staticmethod
    def assert_strict_roundtrip(fit):
        text = json.dumps(nio.fit_to_json(fit), allow_nan=False)
        back = nio.fit_from_json(json.loads(text))
        for c, b in zip(fit.components, back.components):
            assert b.gram_cond == c.gram_cond or np.isnan(b.gram_cond) and np.isnan(c.gram_cond)
            assert np.array_equal(b.resid_var, c.resid_var, equal_nan=True)
            for name in ("w", "gamma_y0", "asymp_cov"):
                assert np.array_equal(getattr(b, name), getattr(c, name), equal_nan=True), name
        return text

    def test_infinite_gram_cond_is_written_as_a_string(self, tmp_path):
        # component 0 is constant and mask row 1 keeps only its column, so
        # that equation's Gram block has no positive eigenvalue
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 60))
        x[0] = 2.0
        mask = np.ones((3, 3))
        mask[1] = [1, 0, 0]
        fit = fit_var(x, 1, mask=mask)
        assert fit.components[1].gram_cond == np.inf
        assert '"gram_cond": "inf"' in self.assert_strict_roundtrip(fit)
        path = tmp_path / "fit.json"
        nio.write_fit_json(path, fit)
        assert nio.read_fit_json(path).components[1].gram_cond == np.inf

    def test_singular_block_with_a_positive_eigenvalue_reports_inf(self):
        # mask row 1 keeps the constant component 0 and component 1, so that
        # equation's Gram block is singular but not zero; like any block that
        # is not positive definite, it reports an infinite condition number
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 60))
        x[0] = 2.0
        fit = fit_var(x, 1, mask=np.array([[1, 1, 1], [1, 1, 0], [1, 1, 1]]))
        assert fit.components[1].ridge_jitter > 0.0 and fit.components[1].gram_cond == np.inf
        assert '"gram_cond": "inf"' in self.assert_strict_roundtrip(fit)

    def test_nan_residual_variance_is_written_as_a_string(self):
        # m = k + 1 observations leave no degree of freedom for the variance
        rng = np.random.default_rng(6)
        comp = fit_component_ls(rng.normal(size=3), rng.normal(size=(3, 2)), 0)
        assert np.isnan(comp.resid_var) and np.isnan(comp.asymp_cov).all()
        fit = ModelFit(family="var", p=2, d=1, g=None, components=[comp])
        text = self.assert_strict_roundtrip(fit)
        assert '"resid_var": "nan"' in text


class TestWholeFitFile:
    """A fit file holds every component, whole; a broken one fails by component."""

    @pytest.fixture()
    def fit_files(self, tmp_path):
        rng = np.random.default_rng(8)
        d, n = 3, 80
        x = rng.normal(size=(d, n))
        ads = AdjacencySeries((rng.random((n, d, d)) < 0.5).astype(float))
        fit = fit_nar(x, ads, [NeighborhoodFn.transpose()] * 2, 2)
        nio.write_series_csv(tmp_path / "series.csv", x)
        nio.write_adjacency_csv(tmp_path / "network.csv", ads)
        nio.write_fit_json(tmp_path / "fit.json", fit)
        return fit, x, ads, json.loads((tmp_path / "fit.json").read_text())

    @staticmethod
    def _drop_component_2(doc):
        del doc["components"][1]

    @staticmethod
    def _shorten_w_of_component_2(doc):
        doc["components"][1]["w"].pop()

    @staticmethod
    def _index_beyond_dp_in_component_3(doc):
        doc["components"][2]["index_set"][-1] = doc["d"] * doc["p"] + 1

    @staticmethod
    def _fractional_index_in_component_3(doc):
        doc["components"][2]["index_set"][0] = 1.5

    @staticmethod
    def _float_index_in_component_3(doc):
        doc["components"][2]["index_set"][0] = 1.0

    @pytest.mark.parametrize("breaks, component", [
        (_drop_component_2, 2), (_shorten_w_of_component_2, 2),
        (_index_beyond_dp_in_component_3, 3), (_fractional_index_in_component_3, 3),
        (_float_index_in_component_3, 3)],
        ids=["missing", "short_w", "index_beyond_dp", "fractional_index", "float_index"])
    def test_broken_file_names_the_component(self, tmp_path, fit_files, breaks, component):
        doc = fit_files[3]
        assert "errors" not in doc
        breaks(doc)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"fit file: component {component} "):
            nio.read_fit_json(path)

    def test_unknown_family_is_named(self, fit_files):
        doc = fit_files[3]
        doc["family"] = "foo"
        with pytest.raises(ValueError, match="fit file: family 'foo' is not one of nar, lnar"):
            nio.fit_from_json(doc)

    @pytest.mark.parametrize("key", ["gamma_y0", "asymp_cov"])
    def test_matrix_a_row_short_is_named(self, fit_files, key):
        doc = fit_files[3]
        doc["components"][1][key].pop()
        with pytest.raises(ValueError, match=rf"component 2 has a {key} that is not 6 x 6"):
            nio.fit_from_json(doc)

    @pytest.mark.parametrize("key", ["mu", "w"])
    def test_non_finite_coefficients_are_named(self, fit_files, key):
        comp = fit_files[3]["components"][2]
        if key == "mu":
            comp["mu"] = "nan"
        else:
            comp["w"][0] = "inf"
        with pytest.raises(ValueError, match=rf"fit file: component 3 has a non-finite {key}$"):
            nio.fit_from_json(fit_files[3])

    def test_lnar_component_holds_every_own_and_pooled_lag(self, fit_files):
        _, x, ads, _ = fit_files
        doc = nio.fit_to_json(fit_lnar(x, ads, [NeighborhoodFn.transpose()] * 2, 2))
        comp = doc["components"][1]
        for key in ("index_set", "w"):
            comp[key] = comp[key][:3]
        for key in ("gamma_y0", "asymp_cov"):
            comp[key] = [row[:3] for row in comp[key][:3]]
        with pytest.raises(ValueError, match=r"component 2's lnar index_set is not 1\.\.4"):
            nio.fit_from_json(doc)

    def test_forecast_refuses_a_fit_missing_a_component(self, tmp_path, fit_files):
        doc = fit_files[3]
        del doc["components"][1]
        (tmp_path / "fit.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="fit file: component 2 "):
            main(["forecast", "--fit", str(tmp_path / "fit.json"),
                  "--series", str(tmp_path / "series.csv"),
                  "--ads", str(tmp_path / "network.csv"), "--h", "3", "--out", str(out)])
        assert not (out / "forecast.csv").exists()

    @staticmethod
    def _damage(doc, case):
        comp = doc["components"][1]
        if case == "long_g":
            doc["g"] = doc["g"] * 2
        elif case in ("string_d", "string_p"):
            doc[case[-1]] = str(doc[case[-1]])
        elif case == "negative_p":
            doc["p"] = -1
        elif case == "null_g":
            doc["g"] = None
        elif case in ("no_mu", "no_rss"):
            del comp[case[3:]]
        elif case == "text_n_obs":
            comp["n_obs"] = "abc"
        elif case == "float_r":
            comp["r"] = 2.0
        elif case == "component_not_an_object":
            doc["components"][1] = 5
        elif case == "doc_not_an_object":
            return [doc]
        elif case == "no_components":
            del doc["components"]
        elif case == "unknown_g_kind":
            doc["g"][0] = {"kind": "foo"}
        elif case == "g_without_order":
            doc["g"][1] = {"kind": "sign_poly"}
        elif case == "g_without_kind":
            doc["g"][0] = {}
        return doc

    DAMAGED = {
        "long_g": r"fit file: g must hold p=2 neighborhood functions for a nar fit, got 4$",
        "string_d": r"fit file: d must be an integer of at least 0, got '3'$",
        "string_p": r"fit file: p must be an integer of at least 0, got '2'$",
        "negative_p": r"fit file: p must be an integer of at least 0, got -1$",
        "null_g": r"fit file: g must hold p=2 neighborhood functions for a nar fit, got None$",
        "no_mu": r"fit file: component 2 has no 'mu'$",
        "no_rss": r"fit file: component 2 has no 'rss'$",
        "text_n_obs": r"fit file: component 2's n_obs must be an integer of at least 1, got 'abc'$",
        "float_r": r"fit file: component 2 is missing, repeated or out of place",
        "component_not_an_object": r"fit file: component 2 is not an object$",
        "doc_not_an_object": r"fit file: the document is not an object$",
        "no_components": r"fit file: the document has no 'components'$",
        "unknown_g_kind": r"fit file: g\[0\]: unknown neighborhood variant 'foo'$",
        "g_without_order": r"fit file: g\[1\]: sign_poly requires a positive order k$",
        "g_without_kind": r"fit file: g\[0\] has no 'kind'$",
    }

    @pytest.mark.parametrize("case", sorted(DAMAGED))
    def test_damaged_field_is_named(self, tmp_path, fit_files, case):
        doc = self._damage(fit_files[3], case)
        with pytest.raises(ValueError, match=self.DAMAGED[case]):
            nio.fit_from_json(doc)
        (tmp_path / "fit.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=self.DAMAGED[case]):
            main(["forecast", "--fit", str(tmp_path / "fit.json"),
                  "--series", str(tmp_path / "series.csv"),
                  "--ads", str(tmp_path / "network.csv"), "--h", "3", "--out", str(out)])
        assert not (out / "forecast.csv").exists()

    def test_var_fit_has_no_g(self, fit_files):
        _, x, _, _ = fit_files
        doc = nio.fit_to_json(fit_var(x, 1))
        doc["g"] = [{"kind": "transpose"}]
        with pytest.raises(ValueError, match="fit file: g must be None for a var fit"):
            nio.fit_from_json(doc)

    def test_every_written_family_reads_back_equal(self, fit_files):
        _, x, ads, _ = fit_files
        g = [NeighborhoodFn.row_normalized_transpose()] * 2
        for fit in (fit_nar(x, ads, g, 2), fit_lnar(x, ads, g, 2), fit_var(x, 2),
                    fit_nar(x, ads, [], 0), fit_lnar(x, ads, [], 0), fit_var(x, 0)):
            doc = nio.fit_to_json(fit)
            assert nio.fit_to_json(nio.fit_from_json(json.loads(json.dumps(doc)))) == doc

    def test_file_with_an_empty_errors_map_still_loads(self, tmp_path, fit_files):
        # files written before fits became whole carry "errors": {}
        fit, x, ads, doc = fit_files
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**doc, "errors": {}}))
        back = nio.read_fit_json(path)
        want = forecast_h(fit, x, ads, HoldLast(), 3).points
        assert np.array_equal(forecast_h(back, x, ads, HoldLast(), 3).points, want)


class TestAnalysisOutputs:
    def test_acf_csv_layout(self, tmp_path):
        x = np.random.default_rng(3).normal(size=(2, 50))
        est = sample_acf(x, 2)
        path = tmp_path / "acf.csv"
        nio.write_acf_csv(path, est)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "h,i,j,gamma,se"
        assert len(lines) == 1 + 3 * 4

    def test_forecast_csv_with_truth(self, tmp_path):
        fc = ForecastSet(points=np.array([[1.0, 2.0], [3.0, 4.0]]),
                         networks_used=None,
                         errors=np.array([[0.1, -0.1], [0.0, 0.5]]))
        path = tmp_path / "fc.csv"
        nio.write_forecast_csv(path, fc)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "h,component,point,truth,error"
        first = lines[1].split(",")
        assert first[:3] == ["1", "1", "1"]
        assert float(first[3]) == pytest.approx(1.1)
        assert float(first[4]) == pytest.approx(0.1)

    def test_atomic_write_replaces_not_appends(self, tmp_path):
        path = tmp_path / "x.csv"
        with nio.atomic_open(path) as fh:
            fh.write("one\n")
        with nio.atomic_open(path) as fh:
            fh.write("two\n")
        assert path.read_text() == "two\n"


class TestDecayJson:
    def test_nan_decay_fit_is_strict_json(self, tmp_path):
        # max_lag=1 leaves too few positive lags for the decay fit: both are NaN
        run = estimate_delta_network(FlipNetwork(0.5), q=2, max_lag=1, reps=10, seed=0,
                                     burn_in=5)
        assert np.isnan(run.decay_ratio) and np.isnan(run.decay_r2)
        path = tmp_path / "decay.json"
        nio.write_decay_json(path, run)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc["decay_ratio"] == doc["decay_r2"] == "nan"
        assert np.isnan(float(doc["decay_ratio"]))
        assert doc["delta_total"] == run.delta_total
