import builtins
import csv
import io
import json
import os
import re
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsqe
from lgsqe import saab
from lgsqe.cli import _build_config, build_parser, main
from lgsqe.errors import LgsqeError
from lgsqe.pipeline import CONFIG_FIELDS, RunConfig, parse_config_file

from conftest import damaged_file

SRC = Path(__file__).resolve().parents[1] / "src"

FIT_FLAGS = [
    "--patch-size", "3", "--stride", "2", "--top-k", "25",
    "--rounds", "12", "--max-depth", "2", "--min-samples-leaf", "2",
]


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    real = lgsqe.stroke_images(120, side=16, seed=20)
    generated = lgsqe.gaussian_degrade(lgsqe.stroke_images(120, side=16, seed=21), 0.3, seed=22)
    real_path = tmp / "real.lgt"
    gen_path = tmp / "gen.lgt"
    lgsqe.save_raw_tensor(real, real_path)
    lgsqe.save_raw_tensor(generated, gen_path)
    return tmp, real_path, gen_path


@pytest.fixture(scope="module")
def fitted_model(cli_data):
    tmp, real_path, gen_path = cli_data
    model_path = tmp / "model.json"
    code = main(["fit", str(real_path), str(gen_path), "-o", str(model_path), *FIT_FLAGS])
    assert code == 0
    return model_path


def refuse_first_hop(monkeypatch):
    """Fail the test if a first-hop pass runs from here on: the fit's moments or pooling, or scoring."""

    def refuse(*args, **kwargs):
        raise AssertionError("a first-hop pass ran")

    monkeypatch.setattr(saab, "extract_patches", refuse)


def one_error_line(capsys, *fragments):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lgsqe: error:"), err
    assert all(fragment in err[0] for fragment in fragments), err[0]


class TestFit:
    def test_prints_summary(self, cli_data, capsys):
        tmp, real_path, gen_path = cli_data
        out = tmp / "m1.json"
        assert main(["fit", str(real_path), str(gen_path), "-o", str(out), *FIT_FLAGS]) == 0
        captured = capsys.readouterr().out
        assert "representation width:" in captured
        assert "selected features: 25" in captured
        assert "train accuracy:" in captured

    def test_repeat_invocation_byte_identical(self, cli_data):
        tmp, real_path, gen_path = cli_data
        a, b = tmp / "m2.json", tmp / "m3.json"
        main(["fit", str(real_path), str(gen_path), "-o", str(a), *FIT_FLAGS])
        main(["fit", str(real_path), str(gen_path), "-o", str(b), *FIT_FLAGS])
        assert a.read_bytes() == b.read_bytes()

    def test_ranking_csv_export(self, cli_data):
        tmp, real_path, gen_path = cli_data
        out = tmp / "m4.json"
        ranking = tmp / "ranking.csv"
        main(["fit", str(real_path), str(gen_path), "-o", str(out), "--ranking-csv", str(ranking), *FIT_FLAGS])
        assert ranking.read_bytes().startswith(b"column_index,loss,threshold\n") and b"\r" not in ranking.read_bytes()
        rows = ranking.read_text().strip().splitlines()
        assert rows[0] == "column_index,loss,threshold"
        losses = [float(r.split(",")[1]) for r in rows[1:]]
        assert losses == sorted(losses)

    def test_config_file_with_flag_override(self, cli_data):
        tmp, real_path, gen_path = cli_data
        cfg = tmp / "run.cfg"
        cfg.write_text("patch_size=3\nstride=2\ntop_k=10\ngbdt_n_rounds=5\ngbdt_max_depth=2\ngbdt_min_samples_leaf=2\n")
        out = tmp / "m5.json"
        main(["fit", str(real_path), str(gen_path), "-o", str(out), "--config", str(cfg), "--top-k", "15"])
        doc = json.loads(out.read_text())
        assert doc["config"]["top_k"] == 15  # flag wins
        assert doc["config"]["gbdt_n_rounds"] == 5

    def test_bad_input_exits_nonzero(self, cli_data, tmp_path, capsys):
        tmp, real_path, _ = cli_data
        junk = tmp_path / "junk.bin"
        junk.write_bytes(bytes(10))
        code = main(["fit", str(real_path), str(junk), "-o", str(tmp_path / "m.json"), *FIT_FLAGS])
        assert code == 1
        assert capsys.readouterr().err.startswith("lgsqe: error:")

    def test_nan_pixel_rejected(self, cli_data, tmp_path, capsys):
        tmp, real_path, _ = cli_data
        raw = bytearray(real_path.read_bytes())
        raw[21:25] = struct.pack("<f", float("nan"))  # first pixel after the 21-byte header
        bad = tmp_path / "nan.lgt"
        bad.write_bytes(bytes(raw))
        code = main(["fit", str(real_path), str(bad), "-o", str(tmp_path / "m.json"), *FIT_FLAGS])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lgsqe: error:") and "pixel values" in err[0]
        assert str(bad) in err[0]

    @pytest.mark.filterwarnings("error")  # no reduced-rank warning from a first-hop fit either
    @pytest.mark.parametrize("patch_size,stride", [("16", "1"), ("14", "3"), ("17", "1")])
    def test_nothing_to_pool_refused_first(self, cli_data, tmp_path, capsys, monkeypatch, patch_size, stride):
        _, real_path, gen_path = cli_data
        refuse_first_hop(monkeypatch)
        flags = [*FIT_FLAGS, "--patch-size", patch_size, "--stride", stride]
        assert main(["fit", str(real_path), str(gen_path), "-o", str(tmp_path / "m.json"), *flags]) == 1
        one_error_line(capsys, f"patch size {patch_size} at stride {stride}", "2x2")
        assert not (tmp_path / "m.json").exists()

    def test_one_source_training_split_refused_first(self, cli_data, tmp_path, capsys, monkeypatch):
        _, real_path, gen_path = cli_data
        refuse_first_hop(monkeypatch)
        flags = [*FIT_FLAGS, "--real-fraction", "0.005"]  # 0.005 of 96 real training images keeps none
        assert main(["fit", str(real_path), str(gen_path), "-o", str(tmp_path / "m.json"), *flags]) == 1
        one_error_line(capsys, "the train split holds 0 real and 96 generated images")


class TestScore:
    def test_scores_csv(self, cli_data, fitted_model):
        tmp, _, gen_path = cli_data
        out = tmp / "scores.csv"
        assert main(["score", str(fitted_model), str(gen_path), "-o", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        assert rows[0]["provenance"] == "generated"
        scores = np.array([float(r["score"]) for r in rows])
        assert np.all((scores > 0) & (scores < 1))
        # a heavily degraded pseudo-generator is flagged on average
        assert scores.mean() > 0.5

    def test_rescore_identical(self, cli_data, fitted_model):
        tmp, _, gen_path = cli_data
        a, b = tmp / "s1.csv", tmp / "s2.csv"
        main(["score", str(fitted_model), str(gen_path), "-o", str(a)])
        main(["score", str(fitted_model), str(gen_path), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_old_major_version_refused(self, cli_data, fitted_model, tmp_path, capsys):
        _, _, gen_path = cli_data
        doc = json.loads(fitted_model.read_text())
        doc["format_version"] = "1.0.0"
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        assert main(["score", str(old), str(gen_path), "-o", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lgsqe: error:") and "'1.0.0'" in err[0]

    @pytest.mark.parametrize("version", ["2.0.0", "3.0.0", "4.0.0", "5.0.0", "6.0.0"])
    def test_format_refused(self, cli_data, fitted_model, tmp_path, capsys, version):
        _, _, gen_path = cli_data
        doc = json.loads(fitted_model.read_text())
        doc["format_version"] = version
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        assert main(["score", str(old), str(gen_path), "-o", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"lgsqe: error: unsupported model format version '{version}'"]

    @pytest.mark.parametrize(
        "fault, key",
        [
            ("no-ensemble-roots", "'roots'"),
            ("no-saab-stride", "'stride'"),
            ("no-selection", "'selection'"),
            ("feature-object", None),
            ("unknown-config-key", "'bogus'"),
            ("int-indices", "selection.indices"),
            ("top-level-list", None),
            ("short-kernel-row", None),
            ("extra-kernel-row", "spectral kernels"),
            ("spatial-to-spectral", "spectral kernels"),
            ("huge-index", None),
            ("float-index", "selection.indices"),
            ("string-index", "selection.indices"),
            ("bool-index", "selection.indices"),
            ("float-feature", "ensemble feature"),
            ("string-feature", "ensemble feature"),
            ("bool-feature", "ensemble feature"),
            ("float-right", "ensemble right"),
            ("string-root", "ensemble roots"),
            ("float-cw-width", "saab.cw_widths"),
            ("short-cw-widths", "cw_widths"),
            ("zero-cw-width", "cw_widths"),
            ("wide-cw-width", "cw_widths"),
            ("zero-stride", "saab geometry"),
            ("float-stride", "saab geometry"),
            ("string-threshold", "config.threshold"),
            ("string-histogram-bins", "config.histogram_bins"),
            ("string-test-fraction", "config.test_fraction"),
            ("bool-top-k", "config.top_k"),
            ("out-of-range-threshold", "threshold must lie in [0, 1]"),
            ("string-learning-rate", "ensemble learning_rate"),
            ("string-base-score", "ensemble base_score"),
            ("wrong-representation-width", "training.representation_width"),
        ],
    )
    def test_malformed_model_one_error_line(self, cli_data, fitted_model, tmp_path, capsys, fault, key):
        _, _, gen_path = cli_data
        doc = json.loads(fitted_model.read_text())
        assert doc["selection"]["spectral_kernels"], "the fixture model selects a spectral column"
        saab, selection, forest = doc["saab"], doc["selection"], doc["ensemble"]
        split = int(np.flatnonzero(np.asarray(forest["feature"]) >= 0)[0])  # a node whose feature and right are not -1
        map_size = (((saab["input_side"] - saab["patch_size"]) // saab["stride"] + 1) // 2) ** 2  # pooled_side**2
        # Wrong types and values that would otherwise load, then fail later (if at all) without naming the file.
        edits = {
            "zero-stride": (saab, "stride", 0),
            "float-stride": (saab, "stride", 2.0),
            "string-threshold": (doc["config"], "threshold", "x"),
            "string-histogram-bins": (doc["config"], "histogram_bins", "x"),
            "string-test-fraction": (doc["config"], "test_fraction", "0.2"),
            "bool-top-k": (doc["config"], "top_k", True),
            "out-of-range-threshold": (doc["config"], "threshold", 1.5),
            "string-learning-rate": (forest, "learning_rate", "x"),
            "string-base-score": (forest, "base_score", "x"),
            "wrong-representation-width": (doc["training"], "representation_width", 5),
        }
        if fault in edits:
            block, name, value = edits[fault]
            block[name] = value
        elif fault == "no-ensemble-roots":
            del forest["roots"]
        elif fault == "no-saab-stride":
            del saab["stride"]
        elif fault == "no-selection":
            del doc["selection"]
        elif fault == "feature-object":
            forest["feature"] = {"0": 1}
        elif fault == "unknown-config-key":
            doc["config"]["bogus"] = 1
        elif fault == "int-indices":
            selection["indices"] = 3
        elif fault == "top-level-list":
            doc = [doc]
        elif fault == "short-kernel-row":
            selection["spectral_kernels"][0].pop()
        elif fault == "extra-kernel-row":
            selection["spectral_kernels"].append(selection["spectral_kernels"][0])
        elif fault == "spatial-to-spectral":
            # One more spectral index than stored kernel rows: the spectral indices start at the width of the pooled values.
            spatial_width = map_size * (1 + len(saab["ac_kernels"]))
            position = next(i for i, j in enumerate(selection["indices"]) if j < spatial_width)
            selection["indices"][position] = spatial_width + saab["cw_widths"][0] - 1
        elif fault == "huge-index":
            selection["indices"][0] = 10**30
        elif fault.split("-")[0] in ("float", "string", "bool"):
            # numpy would read each of these as an integer and score with it.
            kind, name = fault.split("-", 1)
            values, i = {
                "index": (selection["indices"], 0),
                "feature": (forest["feature"], split),
                "right": (forest["right"], split),
                "root": (forest["roots"], 0),
                "cw-width": (saab["cw_widths"], 0),
            }[name]
            values[i] = {"float": values[i] + 0.5, "string": str(values[i]), "bool": True}[kind]
        elif fault == "short-cw-widths":
            saab["cw_widths"].pop()
        else:
            saab["cw_widths"][0] = 0 if fault == "zero-cw-width" else map_size + 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["score", str(bad), str(gen_path), "-o", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"lgsqe: error: {bad}: "), err
        assert key is None or key in err[0]
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("where", ["leaf-value", "threshold", "spectral-kernel"])
    def test_non_finite_number_refused(self, cli_data, fitted_model, tmp_path, capsys, where, text):
        # Python's json reads NaN and Infinity, and 1e999 as inf: each would score or fail later without naming the file.
        _, _, gen_path = cli_data
        doc = json.loads(fitted_model.read_text())
        forest = doc["ensemble"]
        feature = np.asarray(forest["feature"])
        leaf, split = int(np.flatnonzero(feature < 0)[0]), int(np.flatnonzero(feature >= 0)[0])
        array, index = {
            "leaf-value": (forest["value"], leaf),
            "threshold": (forest["threshold"], split),
            "spectral-kernel": (doc["selection"]["spectral_kernels"][0], 0),
        }[where]
        array[index] = "NON-FINITE"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"NON-FINITE"', text))
        assert main(["score", str(bad), str(gen_path), "-o", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"lgsqe: error: {bad}: malformed model: non-finite number {text}"]
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "key, fault",
        [
            ("right", "out-of-range"),
            ("right", "back-to-node"),
            ("right", "into-next-tree"),
            ("feature", "n-features"),
            ("value", "truncated"),
        ],
    )
    def test_corrupted_forest_one_error_line(self, cli_data, fitted_model, tmp_path, key, fault):
        # Run in a child process: a descent that never ends must fail the
        # timeout instead of hanging the suite.
        _, _, gen_path = cli_data
        doc = json.loads(fitted_model.read_text())
        forest = doc["ensemble"]
        split = int(np.flatnonzero(np.asarray(forest["feature"]) >= 0)[0])
        if fault == "out-of-range":
            forest["right"][split] = len(forest["value"]) + 5
        elif fault == "back-to-node":
            forest["right"][split] = split
        elif fault == "into-next-tree":
            forest["right"][split] = forest["roots"][1]
        elif fault == "n-features":
            forest["feature"][split] = forest["n_features"]
        else:
            forest["value"] = forest["value"][:-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "lgsqe.cli", "score", str(bad), str(gen_path), "-o", str(tmp_path / "s.csv")],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
        )
        err = proc.stderr.splitlines()
        assert proc.returncode == 1 and len(err) == 1 and err[0].startswith("lgsqe: error:"), proc.stderr
        assert not (tmp_path / "s.csv").exists()

    def test_zero_byte_file_names_the_file(self, fitted_model, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert main(["score", str(fitted_model), str(empty), "-o", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"lgsqe: error: {empty}: unknown image format")

    def test_empty_sample_file(self, cli_data, fitted_model, tmp_path):
        empty = tmp_path / "empty.lgt"
        lgsqe.save_raw_tensor(
            lgsqe.ImageSet(np.empty((0, 16, 16, 1), dtype=np.float32), "generated"), empty
        )
        out = tmp_path / "scores.csv"
        assert main(["score", str(fitted_model), str(empty), "-o", str(out)]) == 0
        assert out.read_text() == "sample_id,provenance,score\n"


class TestLoaderFuzz:
    @given(fmt=st.sampled_from(["idx", "cifar", "lgt"]), data=st.data())
    @settings(max_examples=80)
    def test_one_error_line_or_scores(self, fitted_model, tmp_path_factory, fmt, data):
        tmp = tmp_path_factory.mktemp("fuzz")
        path = tmp / f"damaged.{fmt}"
        path.write_bytes(damaged_file(data, fmt, side=16))  # the fitted model's side, so some files score
        try:
            lgsqe.load_images(path)
            load_error = None
        except (LgsqeError, ValueError) as exc:
            load_error = str(exc)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["score", str(fitted_model), str(path), "-o", str(tmp / "s.csv")])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert load_error is None and lines == []
        else:
            assert code == 1 and len(lines) == 1 and lines[0].startswith("lgsqe: error: ")
            assert load_error is None or lines[0] == f"lgsqe: error: {load_error}"


class TestEval:
    def test_auto_holdout_on_training_files(self, cli_data, fitted_model, capsys):
        tmp, real_path, gen_path = cli_data
        out = tmp / "report.json"
        assert main(["eval", str(fitted_model), str(real_path), str(gen_path), "-o", str(out)]) == 0
        assert "evaluated on: holdout" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["metadata"]["evaluated_on"] == "holdout"
        assert doc["metadata"]["eval_counts"]["real"] == 24  # 0.2 of 120
        report = lgsqe.EvaluationReport.from_dict(doc)  # schema round trip
        assert report.to_json() == out.read_text()

    def test_empty_holdout_refused_before_scoring(self, cli_data, tmp_path, capsys, monkeypatch):
        _, real_path, gen_path = cli_data
        model = tmp_path / "m.json"
        # A test fraction of 0.005 holds out none of the 120 images of each source.
        flags = [*FIT_FLAGS, "--test-fraction", "0.005"]
        assert main(["fit", str(real_path), str(gen_path), "-o", str(model), *flags]) == 0
        capsys.readouterr()
        refuse_first_hop(monkeypatch)
        assert main(["eval", str(model), str(real_path), str(gen_path), "-o", str(tmp_path / "r.json")]) == 1
        one_error_line(capsys, "(holdout) holds 0 real and 0 generated images")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("use", ["auto", "all"])
    def test_empty_files_refused_before_scoring(self, fitted_model, tmp_path, capsys, monkeypatch, use):
        paths = [tmp_path / "real.lgt", tmp_path / "gen.lgt"]
        for path in paths:
            lgsqe.save_raw_tensor(lgsqe.ImageSet(np.empty((0, 16, 16, 1), dtype=np.float32)), path)
        refuse_first_hop(monkeypatch)
        argv = ["eval", str(fitted_model), *map(str, paths), "-o", str(tmp_path / "r.json"), "--use", use]
        assert main(argv) == 1
        one_error_line(capsys, "(all) holds 0 real and 0 generated images")
        assert not (tmp_path / "r.json").exists()

    def test_auto_all_on_fresh_files(self, cli_data, fitted_model, tmp_path):
        fresh_real = tmp_path / "fresh_real.lgt"
        fresh_gen = tmp_path / "fresh_gen.lgt"
        lgsqe.save_raw_tensor(lgsqe.stroke_images(30, side=16, seed=30), fresh_real)
        lgsqe.save_raw_tensor(
            lgsqe.gaussian_degrade(lgsqe.stroke_images(30, side=16, seed=31), 0.3, seed=32), fresh_gen
        )
        out = tmp_path / "report.json"
        assert main(["eval", str(fitted_model), str(fresh_real), str(fresh_gen), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["evaluated_on"] == "all"
        assert doc["metadata"]["eval_counts"] == {"real": 30, "generated": 30}

    def test_explicit_holdout_on_mismatch_fails(self, cli_data, fitted_model, tmp_path, capsys):
        fresh = tmp_path / "fresh.lgt"
        lgsqe.save_raw_tensor(lgsqe.stroke_images(10, side=16, seed=33), fresh)
        tmp, real_path, _ = cli_data
        code = main(["eval", str(fitted_model), str(real_path), str(fresh), "-o", str(tmp_path / "r.json"), "--use", "holdout"])
        assert code == 1
        assert "lgsqe: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("use", ["auto", "holdout"])
    def test_sources_hashed_once(self, cli_data, fitted_model, tmp_path, monkeypatch, use):
        _, real_path, gen_path = cli_data
        hashed, fingerprint = [], lgsqe.pipeline.imageset_fingerprint

        def counted(images):
            hashed.append(images.provenance)
            return fingerprint(images)

        monkeypatch.setattr(lgsqe.pipeline, "imageset_fingerprint", counted)
        out = tmp_path / "r.json"
        assert main(["eval", str(fitted_model), str(real_path), str(gen_path), "-o", str(out), "--use", use]) == 0
        assert hashed == ["real", "generated"] and json.loads(out.read_text())["metadata"]["evaluated_on"] == "holdout"

    def test_repeat_eval_byte_identical(self, cli_data, fitted_model, tmp_path):
        tmp, real_path, gen_path = cli_data
        a, b = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["eval", str(fitted_model), str(real_path), str(gen_path), "-o", str(a)])
        main(["eval", str(fitted_model), str(real_path), str(gen_path), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "training",
        [{"selected_count": 1}, {"fingerprints": {"real": "0"}}, [1], None],
        ids=["no-fingerprints", "no-generated-print", "list", "null"],
    )
    def test_bad_training_block_one_error_line(self, cli_data, fitted_model, tmp_path, capsys, training):
        _, real_path, gen_path = cli_data
        doc = json.loads(fitted_model.read_text())
        doc["training"] = training
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(bad), str(real_path), str(gen_path), "-o", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"lgsqe: error: {bad}: ") and "fingerprints" in err[0], err
        assert not (tmp_path / "r.json").exists()

    def test_svg_flag(self, cli_data, fitted_model, tmp_path):
        tmp, real_path, gen_path = cli_data
        svg = tmp_path / "hist.svg"
        main(["eval", str(fitted_model), str(real_path), str(gen_path), "-o", str(tmp_path / "r.json"), "--svg", str(svg)])
        assert svg.read_text().startswith("<svg")


class TestFilter:
    def test_filter_outputs(self, cli_data, fitted_model, tmp_path):
        tmp, _, gen_path = cli_data
        kept_lgt = tmp_path / "kept.lgt"
        kept_csv = tmp_path / "kept.csv"
        code = main([
            "filter", str(fitted_model), str(gen_path),
            "-o", str(kept_lgt), "--ids-out", str(kept_csv), "--keep-fraction", "0.4",
        ])
        assert code == 0
        kept = lgsqe.load_raw_tensor(kept_lgt)
        assert kept.count == int(0.4 * 120)
        assert kept.provenance == "generated"
        assert kept_csv.read_bytes().startswith(b"sample_id,score\n") and b"\r" not in kept_csv.read_bytes()
        with open(kept_csv) as fh:
            rows = list(csv.DictReader(fh))
        scores = [float(r["score"]) for r in rows]
        assert scores == sorted(scores)
        # mirrors the library-level call
        model = lgsqe.PipelineModel.load(fitted_model)
        generated = lgsqe.load_raw_tensor(gen_path)
        expected = lgsqe.filter_samples(np.arange(120), model.score_images(generated), 0.4)
        np.testing.assert_array_equal([int(r["sample_id"]) for r in rows], expected)

    def test_bad_fraction(self, cli_data, fitted_model, tmp_path, capsys):
        tmp, _, gen_path = cli_data
        code = main([
            "filter", str(fitted_model), str(gen_path),
            "-o", str(tmp_path / "k.lgt"), "--ids-out", str(tmp_path / "k.csv"), "--keep-fraction", "0",
        ])
        assert code == 1
        assert "keep_fraction" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("filter", "--keep-fraction", "1.5", "keep_fraction must lie in (0, 1], got 1.5"),
        ("eval", "--threshold", "2", "threshold must lie in [0, 1], got 2.0"),
        ("eval", "--histogram-bins", "0", "bins must be >= 2, got 0"),
        ("fit", "--learning-rate", "nan", "learning_rate must be positive and finite"),
        ("fit", "--config", "run.cfg", "reg_lambda must be >= 0 and finite"),
    ],
    ids=["keep-fraction", "threshold", "histogram-bins", "learning-rate-nan", "config-reg-lambda-inf"],
)
def test_bad_value_fails_before_images_are_read(
    cli_data, fitted_model, tmp_path, monkeypatch, capsys, command, flag, value, message
):
    _, real_path, gen_path = cli_data
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("gbdt_reg_lambda=inf\n")
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    out = tmp_path / "out"
    argv = {
        "filter": ["filter", str(fitted_model), str(gen_path), "-o", str(out), "--ids-out", str(tmp_path / "ids.csv")],
        "eval": ["eval", str(fitted_model), str(real_path), str(gen_path), "-o", str(out)],
        "fit": ["fit", str(real_path), str(gen_path), "-o", str(out)],
    }[command]
    assert main([*argv, flag, value]) == 1
    assert capsys.readouterr().err.splitlines() == [f"lgsqe: error: {message}"]
    assert not {str(real_path), str(gen_path)} & set(opened) and not out.exists()


class TestSweep:
    def test_single_fraction_matches_fit_eval(self, cli_data, fitted_model, tmp_path):
        tmp, real_path, gen_path = cli_data
        sweep_csv = tmp_path / "sweep.csv"
        code = main(["sweep", str(real_path), str(gen_path), "-o", str(sweep_csv), "--fractions", "1.0", *FIT_FLAGS])
        assert code == 0
        with open(sweep_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        report_path = tmp_path / "ref.json"
        main(["eval", str(fitted_model), str(real_path), str(gen_path), "-o", str(report_path)])
        reference = json.loads(report_path.read_text())["accuracy"]
        assert float(rows[0]["accuracy"]) == reference

    def test_multiple_fractions(self, cli_data, tmp_path):
        tmp, real_path, gen_path = cli_data
        sweep_csv = tmp_path / "sweep.csv"
        code = main(["sweep", str(real_path), str(gen_path), "-o", str(sweep_csv), "--fractions", "0.5", "1.0", *FIT_FLAGS])
        assert code == 0
        assert sweep_csv.read_bytes().startswith(b"real_fraction,real_train_count,accuracy\n")
        assert b"\r" not in sweep_csv.read_bytes()
        with open(sweep_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["real_fraction"] for r in rows] == ["0.5", "1"]
        assert int(rows[0]["real_train_count"]) == 48  # 0.5 of 96 train
        assert int(rows[1]["real_train_count"]) == 96

    @pytest.mark.parametrize(
        "fractions,flags,message",
        [
            (["1.0", "0"], [], "real_fraction must lie in (0, 1], got 0.0"),
            (["1.0", "0.005"], [], "the train split holds 0 real and 96 generated images"),
            (["1.0"], ["--test-fraction", "0.005"], "the test split holds 0 real and 0 generated images"),
        ],
        ids=["fraction-out-of-range", "empty-train-split", "empty-test-split"],
    )
    def test_every_fraction_checked_before_fitting(
        self, cli_data, tmp_path, capsys, monkeypatch, fractions, flags, message
    ):
        _, real_path, gen_path = cli_data
        refuse_first_hop(monkeypatch)
        out = tmp_path / "s.csv"
        argv = ["sweep", str(real_path), str(gen_path), "-o", str(out), "--fractions", *fractions, *FIT_FLAGS, *flags]
        assert main(argv) == 1
        one_error_line(capsys, message)
        assert not out.exists()

    def test_missing_fractions_rejected(self, cli_data, tmp_path):
        tmp, real_path, gen_path = cli_data
        with pytest.raises(SystemExit):
            main(["sweep", str(real_path), str(gen_path), "-o", str(tmp_path / "s.csv"), "--fractions"])


# One valid non-default value per config key.
NON_DEFAULT = {
    "patch_size": 3,
    "stride": 1,
    "channels": 3,
    "energy_threshold": 0.95,
    "k1": 7,
    "cw_k": 4,
    "num_bins": 16,
    "select_mode": "elbow",
    "top_k": 12,
    "threshold": 0.4,
    "histogram_bins": 20,
    "test_fraction": 0.25,
    "real_fraction": 0.5,
    "seed": 7,
    "gbdt_n_rounds": 9,
    "gbdt_max_depth": 2,
    "gbdt_learning_rate": 0.3,
    "gbdt_reg_lambda": 0.5,
    "gbdt_min_samples_leaf": 2,
    "gbdt_subsample": 0.8,
}
FLAG_ARGS = {"gbdt_n_rounds": ["--rounds", "9"], "select_mode": ["--elbow"]}


def _fit_config(*extra):
    return _build_config(build_parser().parse_args(["fit", "real.lgt", "gen.lgt", "-o", "m.json", *extra]))


class TestConfigSchema:
    def test_every_key_covered(self):
        assert list(NON_DEFAULT) == list(RunConfig().to_dict())

    @pytest.mark.parametrize("key", list(NON_DEFAULT))
    def test_key_reaches_config_and_round_trips(self, key, tmp_path):
        value = NON_DEFAULT[key]
        expected = {**RunConfig().to_dict(), key: value}
        assert expected != RunConfig().to_dict()
        flag = "--" + key.removeprefix("gbdt_").replace("_", "-")
        via_flag = _fit_config(*FLAG_ARGS.get(key, [flag, str(value)]))
        cfg = tmp_path / "in.cfg"
        cfg.write_text(f"{key}={value}\n")
        via_file = _fit_config("--config", str(cfg))
        for config in (via_flag, via_file):
            assert config.to_dict() == expected
            out = tmp_path / "out.cfg"
            out.write_text("".join(f"{k}={'none' if v is None else v}\n" for k, v in config.to_dict().items()))
            parsed = parse_config_file(out)
            assert parsed == expected
            assert [type(v) for v in parsed.values()] == [type(v) for v in expected.values()]
            assert RunConfig.from_dict(parsed) == config

    def test_gbdt_seed_is_not_a_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gbdt_subsample=0.5\ngbdt_seed=7\n")
        assert main(["fit", "real.lgt", "gen.lgt", "-o", str(tmp_path / "m.json"), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unknown config key 'gbdt_seed'" in err[0]

    def test_readme_table_matches_fields(self, capsys):
        """The README configuration table is a hand-kept copy of the schema: it lists every config flag of
        ``lgsqe fit --help`` and no other, each default as the field's (``unset`` for None). One default given
        for several flags applies to each; a store_const flag such as ``--elbow`` takes none."""
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        group = capsys.readouterr().out.split("pipeline configuration:\n", 1)[1].split("\n\n", 1)[0]
        help_flags = set(re.findall(r"^  (--[a-z0-9-]+)", group, re.M)) - {"--config"}
        by_flag = {f.metadata.get("flag", "--" + f.name.replace("_", "-")): f for f, _ in CONFIG_FIELDS.values()}
        assert help_flags == set(by_flag)
        readme = (SRC.parent / "README.md").read_text()
        table = readme.split("| flag | default | meaning |\n| --- | --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        table_flags = []
        for line in table.splitlines():
            flag_cell, default_cell, _ = (cell.strip() for cell in line.strip("|").split("|"))
            flags = re.findall(r"`(--[a-z0-9-]+)`", flag_cell)
            valued = [flag for flag in flags if "const" not in by_flag[flag].metadata]
            defaults = [d.strip() for d in default_cell.split(",")]
            defaults = defaults * len(valued) if len(defaults) == 1 else defaults
            assert len(defaults) == len(valued), line
            for flag, text in zip(valued, defaults):
                default = by_flag[flag].default
                assert text == ("unset" if default is None else str(default)), (flag, text, default)
            table_flags += flags
        assert sorted(table_flags) == sorted(help_flags)


def test_package_does_not_import_scipy():
    """scipy is installed alongside numpy but is not a dependency: importing
    the package and its CLI in a fresh interpreter must not load it."""
    code = "import sys, lgsqe, lgsqe.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


MA_SCRIPT = """
import sys
import numpy
from lgsqe.cli import main

print("numpy.ma numpy", "numpy.ma" in sys.modules)  # numpy 1.24 imports it with numpy itself
for argv in sys.argv[1:]:
    assert main(argv.split("|")) == 0, argv
    print("numpy.ma", argv.split("|")[0], "numpy.ma" in sys.modules)
"""


def test_scoring_commands_do_not_import_numpy_ma(cli_data, fitted_model, tmp_path):
    """A plain ``np.unique`` imports ``numpy.ma`` in numpy 2.x, about 13 ms per
    command; scoring, evaluating and filtering leave it unimported."""
    _, real_path, gen_path = cli_data
    model, real, gen = str(fitted_model), str(real_path), str(gen_path)
    commands = [
        ["score", model, gen, "-o", str(tmp_path / "scores.csv")],
        ["eval", model, real, gen, "--use", "all", "-o", str(tmp_path / "report.json")],
        ["filter", model, gen, "-o", str(tmp_path / "kept.lgt"), "--ids-out", str(tmp_path / "kept.csv"),
         "--keep-fraction", "0.5"],
    ]
    run = subprocess.run(
        [sys.executable, "-c", MA_SCRIPT, *("|".join(argv) for argv in commands)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True, timeout=120,
    )
    seen = dict(line.split()[1:] for line in run.stdout.splitlines() if line.startswith("numpy.ma "))
    assert seen == {name: seen["numpy"] for name in ("numpy", "score", "eval", "filter")}, run.stdout
