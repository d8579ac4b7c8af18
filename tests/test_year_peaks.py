import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "year_peaks.py")


def test_year_peaks_runs_each_command_on_a_few_dozen_hours(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, SCRIPT, "--hours", "36", "--dir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("built 36 hours, cube.wxc ")
    assert lines[1].split() == ["command", "exit", "wall", "s", "ru_maxrss", "MB",
                                "RssAnon", "MB", "RssFile", "MB"]
    rows = {line[:24].strip(): line[24:].split() for line in lines[2:]}
    assert list(rows) == ["split --stack 5", "saliency, one hour", "eval, test split"]
    for name, (code, wall, maxrss, anon, mapped) in rows.items():
        assert code == "0", name
        assert float(wall) > 0 and float(maxrss) > 0 and float(anon) > 0, name
        assert 0 < float(mapped) <= float(maxrss), name
    assert (tmp_path / "splits.txt").exists() and (tmp_path / "eval").is_dir()
    assert len(list((tmp_path / "saliency").iterdir())) > 0
