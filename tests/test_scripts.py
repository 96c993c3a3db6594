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


def test_mc_check_agrees_with_the_numeric_route(tmp_path):
    result = run_script("mc_check.py", "--trajectories", "50", "--seed", "2024", cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "distinct covariance entries: 120, threshold z: 3.93\n" in result.stdout
    assert "entries flagged: 0 of 120\n" in result.stdout


def test_mc_check_bad_argument_exits_two_with_one_line(tmp_path):
    for args, message in ((("--trajectories", "1"), "trajectories: expected at least 2, got 1"),
                          (("--seed", "-1"), "master_seed: expected at least 0, got -1")):
        result = run_script("mc_check.py", *args, cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (2, "", f"mc_check: {message}\n")


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    numeric, analytic = namespace["numeric"], namespace["analytic"]
    for block in ("q_delta", "q_omega", "q_delta_omega"):
        reference = getattr(numeric, block)
        gap = abs(getattr(analytic, block) - reference) / (1.0 + abs(reference))
        assert gap.max() <= 1e-8, block
