"""The experiment scripts under ``scripts/`` run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": path}, cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def test_benchmark_sweeps_write_one_csv_per_family_and_axis(tmp_path):
    result = run_script("benchmark_sweeps.py", "--out-dir", "out", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    csvs = sorted((tmp_path / "out").glob("*.csv"))
    # Complete and star, each over damping, eta, gamma and n: eight grid
    # points by two routes per file.
    assert [path.stem for path in csvs] == [
        f"{kind}_{axis}" for kind in ("complete", "star") for axis in ("damping", "eta", "gamma", "n")
    ]
    for path in csvs:
        lines = path.read_text().splitlines()
        assert len(lines) == 17 and lines[0].endswith(",method,omega_2_2,delta_1_1,delta_2_2")
        assert {line.split(",")[1] for line in lines[1:]} == {"closed", "numeric"}


def test_mc_check_finds_no_entry_beyond_four_standard_errors(tmp_path):
    result = run_script("mc_check.py", "--trajectories", "50", "--seed", "2024", cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "entries beyond 4 standard errors: 0 of 225" in result.stdout
