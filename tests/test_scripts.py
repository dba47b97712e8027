"""The two ablation scripts, run end to end as subprocesses on a tiny config."""
import subprocess
import sys
from pathlib import Path

from wau.stage import UPSAMPLERS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

TINY = """\
[model]
base_channels = 4
heads = 2
window = 2

[data]
train_count = 8
val_count = 4
height = 16
width = 16

[train]
epochs = 1
warmup_epochs = 0
"""


def run_script(name, tmp_path, *args, config=TINY):
    ini = tmp_path / "tiny.ini"
    ini.write_text(config)
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), "--config", str(ini),
         "--out", str(tmp_path / "out"), *args],
        capture_output=True, text=True, timeout=300)


def table_keys(stdout, header):
    """First column of the rows between the table header and a blank line."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == [header])
    keys = []
    for line in lines[start + 1:]:
        if not line.strip():
            break
        keys.append(line.split()[0])
    return keys


def assert_config_error(proc):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_compare_upsamplers_prints_one_row_per_variant(tmp_path):
    proc = run_script("compare_upsamplers.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert table_keys(proc.stdout, "upsampler") == list(UPSAMPLERS)


def test_window_ablation_prints_one_row_per_dividing_window(tmp_path):
    # The deepest map is 16 / 2^2 = 4 pixels wide, so window 3 is skipped.
    proc = run_script("window_ablation.py", tmp_path, "--windows", "1", "2", "3")
    assert proc.returncode == 0, proc.stderr
    assert table_keys(proc.stdout, "window") == ["1", "2"]
    assert "[m2=3] skipped" in proc.stderr


def test_bad_config_exits_2_without_traceback(tmp_path):
    bad = TINY.replace("warmup_epochs = 0", "warmup_epochs = 1")
    for name in ("compare_upsamplers.py", "window_ablation.py"):
        proc = run_script(name, tmp_path, config=bad)
        assert_config_error(proc)
        assert proc.stderr.startswith("config error: [train] warmup_epochs")


def test_window_below_one_rejected(tmp_path):
    proc = run_script("window_ablation.py", tmp_path, "--windows", "2", "0")
    assert_config_error(proc)
    assert "window sizes must be >= 1" in proc.stderr
