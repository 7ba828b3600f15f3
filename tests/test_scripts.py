"""Smoke tests: the scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import lgsqe

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
