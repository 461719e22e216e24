"""Scratch space: inside the checkout, one directory per live run."""

import os
import subprocess
import sys

import run


def test_claim_workdir_sweeps_what_killed_runs_left(tmp_path, monkeypatch):
    root = tmp_path / ".work"
    monkeypatch.setattr(run, "WORK_ROOT", root)
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    for name in (str(dead.pid), str(os.getppid()), "notes"):
        (root / name).mkdir(parents=True)
    (root / str(dead.pid) / "node-1.wal").write_text("left behind")

    mine = run.claim_workdir()

    assert mine == root / str(os.getpid()) and mine.is_dir()
    # the dead run's files are gone; a live run's and a stranger's stay
    assert sorted(p.name for p in root.iterdir()) == sorted(
        [str(os.getpid()), str(os.getppid()), "notes"]
    )
