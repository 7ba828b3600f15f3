"""Smoke tests: the scripts under scripts/ run end to end on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lgsqe
from lgsqe.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_make_demo_data(tmp_path):
    proc = _run("make_demo_data.py", "--count", "40", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = ["real.lgt", "gen_sigma030.lgt", "gen_sigma010.lgt", "gen_mixed.lgt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        images = lgsqe.load_raw_tensor(tmp_path / name)
        assert (images.count, images.side, images.channels) == (40, 28, 1)


def test_run_noise_sweep(tmp_path):
    proc = _run("run_noise_sweep.py", "--count", "60", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    headers = {
        "noise_ladder.csv": "sigma,accuracy,pr_auc",
        "filtering_curve.csv": "keep_fraction,kept_count,mean_kept_score,accuracy",
        "training_sweep.csv": "real_fraction,accuracy",
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(headers)
    for name, header in headers.items():
        raw = (tmp_path / name).read_bytes()
        assert b"\r" not in raw  # lines end in LF, as in every CSV the CLI writes
        lines = raw.decode().splitlines()
        assert lines[0] == header and len(lines) == 6  # five rows per sub-experiment


def test_compare_models_with_itself(tmp_path):
    real = lgsqe.stroke_images(40, side=16, seed=1)
    generated = lgsqe.gaussian_degrade(lgsqe.stroke_images(40, side=16, seed=2), 0.3, seed=3)
    paths = [tmp_path / "real.lgt", tmp_path / "gen.lgt"]
    lgsqe.save_raw_tensor(real, paths[0])
    lgsqe.save_raw_tensor(generated, paths[1])
    model = tmp_path / "model.json"
    flags = ["--patch-size", "3", "--stride", "2", "--top-k", "20", "--rounds", "5"]
    assert main(["fit", *map(str, paths), "-o", str(model), *flags]) == 0
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        proc = _run("compare_models.py", str(model), str(model), *map(str, paths), "-o", str(out))
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()
    report = json.loads(outs[0].read_text())
    assert report["images"] == {"real": 40, "generated": 40} and report["resamples"] == 1000
    assert sorted(report["metrics"]) == ["accuracy", "pr_auc", "roc_auc"]
    for metric in report["metrics"].values():
        assert metric["a"] == metric["b"]
        assert (metric["difference"], metric["interval"], metric["b_wins"]) == (0.0, [0.0, 0.0], 0.0)
