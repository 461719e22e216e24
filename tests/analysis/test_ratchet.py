"""The ratchet guards: source size may shrink, banked perf may rise."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "check_baseline_ratchet.py"

spec = importlib.util.spec_from_file_location("check_baseline_ratchet",
                                              SCRIPT)
ratchet = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ratchet)


def src_args(tmp_path):
    """Point the source-size side at an isolated (empty) tree."""
    src_dir = tmp_path / "src"
    src_dir.mkdir(exist_ok=True)
    return ["--src", str(src_dir), "--src-lock", str(tmp_path / "src.lock")]


def bench_args(tmp_path):
    """Point the bench and source sides at isolated (empty) directories."""
    bench_dir = tmp_path / "bench-baselines"
    bench_dir.mkdir(exist_ok=True)
    return [
        "--bench-baselines", str(bench_dir),
        "--bench-lock", str(bench_dir / "ratchets.lock"),
        *src_args(tmp_path),
    ]


class TestBenchRatchet:
    """Committed ``ratchet_*`` bench keys may never drop below the lock."""

    def _setup(self, tmp_path, floor=5.0):
        bench_dir = tmp_path / "bench-baselines"
        bench_dir.mkdir()
        (bench_dir / "BENCH_fig6.json").write_text(json.dumps(
            {"result_cache": {"ratchet_speedup_floor": floor,
                              "hot_hit_table_calls": 0}}
        ))
        args = [
            "--bench-baselines", str(bench_dir),
            "--bench-lock", str(bench_dir / "ratchets.lock"),
            *src_args(tmp_path),
        ]
        return args, bench_dir

    def _rewrite(self, bench_dir, floor):
        (bench_dir / "BENCH_fig6.json").write_text(json.dumps(
            {"result_cache": {"ratchet_speedup_floor": floor,
                              "hot_hit_table_calls": 0}}
        ))

    def test_update_banks_the_floor_and_roundtrips(self, tmp_path, capsys):
        args, _ = self._setup(tmp_path)
        assert ratchet.main([*args, "--update"]) == 0
        assert ratchet.main(args) == 0
        out = capsys.readouterr().out
        assert "1 bench ratchet key(s)" in out

    def test_lowered_floor_fails(self, tmp_path, capsys):
        args, bench_dir = self._setup(tmp_path, floor=5.0)
        assert ratchet.main([*args, "--update"]) == 0
        self._rewrite(bench_dir, floor=3.0)
        assert ratchet.main(args) == 1
        assert "below the locked floor" in capsys.readouterr().out

    def test_raised_floor_passes_and_suggests_banking(self, tmp_path,
                                                      capsys):
        args, bench_dir = self._setup(tmp_path, floor=5.0)
        assert ratchet.main([*args, "--update"]) == 0
        self._rewrite(bench_dir, floor=8.0)
        assert ratchet.main(args) == 0
        assert "rose above" in capsys.readouterr().out

    def test_vanished_ratchet_key_fails(self, tmp_path, capsys):
        args, bench_dir = self._setup(tmp_path)
        assert ratchet.main([*args, "--update"]) == 0
        (bench_dir / "BENCH_fig6.json").write_text(json.dumps(
            {"result_cache": {"hot_hit_table_calls": 0}}
        ))
        assert ratchet.main(args) == 1
        assert "lost its banked key" in capsys.readouterr().out

    def test_missing_bench_lock_with_ratchets_fails(self, tmp_path, capsys):
        args, _ = self._setup(tmp_path)
        assert ratchet.main(args) == 1
        assert "--update" in capsys.readouterr().out

    def test_repo_bench_lock_matches_committed_baselines(self):
        status, _ = ratchet.check_bench_ratchets(
            ratchet.DEFAULT_BENCH_BASELINES, ratchet.DEFAULT_BENCH_LOCK
        )
        assert status == 0


class TestSrcLinesRatchet:
    """The physical line count of ``src/**/*.py`` may only fall."""

    def _setup(self, tmp_path, lines=3):
        args = bench_args(tmp_path)
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text("x = 1\n" * lines)
        (package / "notes.txt").write_text("not source\n" * 50)
        return args, package / "mod.py"

    def test_update_locks_the_count_and_roundtrips(self, tmp_path, capsys):
        args, _ = self._setup(tmp_path, lines=3)
        assert ratchet.main([*args, "--update"]) == 0
        assert (tmp_path / "src.lock").read_text() == "3\n"
        assert ratchet.main(args) == 0
        assert "3 source line(s)" in capsys.readouterr().out

    def test_grown_tree_fails(self, tmp_path, capsys):
        args, module = self._setup(tmp_path, lines=3)
        assert ratchet.main([*args, "--update"]) == 0
        module.write_text("x = 1\n" * 4)
        assert ratchet.main(args) == 1
        assert "grew to 4 lines" in capsys.readouterr().out

    def test_shrunk_tree_passes_and_suggests_tightening(self, tmp_path,
                                                        capsys):
        args, module = self._setup(tmp_path, lines=3)
        assert ratchet.main([*args, "--update"]) == 0
        module.write_text("x = 1\n")
        assert ratchet.main(args) == 0
        assert "shrank by 2 line(s)" in capsys.readouterr().out

    def test_missing_src_lock_fails(self, tmp_path, capsys):
        args, _ = self._setup(tmp_path)
        assert ratchet.main(args) == 1
        assert "src.lock is missing" in capsys.readouterr().out

    def test_repo_src_lock_is_not_exceeded(self):
        status, _ = ratchet.check_src_lines(
            ratchet.DEFAULT_SRC, ratchet.DEFAULT_SRC_LOCK
        )
        assert status == 0
