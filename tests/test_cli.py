import dataclasses
import functools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from ivpverify import cli, gridrun
from ivpverify.report import make_case


def test_task_dispatch_exit_zero(capsys):
    assert cli.main(["transform", "--n-max", "6"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("PASS 7/7\n")


def test_unknown_task_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_bounds_exit_two(capsys):
    assert cli.main(["transform", "--n-max", "-1"]) == 2
    assert "n-max" in capsys.readouterr().err
    assert cli.main(["recurrence", "--n-max", "1"]) == 2
    assert cli.main(["all", "--n-max", "1"]) == 2
    assert cli.main(["lemma-schmidt", "--n-max", "0"]) == 2
    assert cli.main(["conjecture-final", "--n-max", "0"]) == 2
    assert cli.main(["chu-vandermonde", "--k-max", "-1"]) == 2
    assert cli.main(["theorem1", "--l-max", "0"]) == 2
    assert cli.main(["conjecture-sun-m", "--m", "0"]) == 2
    assert cli.main(["catalan-form", "--x-min", "3", "--x-max", "-3"]) == 2
    assert cli.main(["theorem1", "--eps", "0"]) == 2
    assert cli.main(["transform", "--jobs", "0"]) == 2
    # Code that builds a GridConfig gets the same checks.
    with pytest.raises(cli.UsageError, match="n-max"):
        cli.run(cli.GridConfig("theorem1", l_max=4, n_max=0))


def _replace_rows(monkeypatch, task, row):
    """Make every row of task call `row` on that row's arguments instead."""
    entry = cli._TASKS[task]

    def rows(config):
        return [functools.partial(row, *original.args) for original in entry.rows(config)]

    monkeypatch.setitem(cli._TASKS, task, dataclasses.replace(entry, rows=rows))


def test_mathematical_failure_exits_one(capsys, monkeypatch):
    def forced(n_max):
        return [make_case((("n", n_max),), False, "forced")]

    _replace_rows(monkeypatch, "sun-one", forced)
    assert cli.main(["sun-one", "--n-max", "0"]) == 1
    assert "FAIL 1/1" in capsys.readouterr().out


def test_json_output_to_file(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["q-sun", "--n-max", "5", "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["task"] == "q-sun"
    assert payload["summary"]["fail"] == 0
    assert payload["config"] == {"n_max": 5}


def test_unwritable_out_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.csv"
    rc = cli.main(["transform", "--n-max", "2", "--out", str(target)])
    assert rc == 2
    assert "cannot write" in capsys.readouterr().err


def _no_run(config):
    raise AssertionError("the run started before --out was checked")


@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_bad_out_path_exits_two_before_the_run(tmp_path, capsys, monkeypatch, target):
    # A missing directory, or a directory given as the file, is a usage
    # error found before any task runs.
    monkeypatch.setattr(cli, "run", _no_run)
    rc = cli.main(["all", "--out", str(tmp_path / target)])
    assert rc == 2
    assert "cannot write report to" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_failure_after_the_run_exits_two(capsys):
    # /dev/full passes the early check; the write itself fails (ENOSPC).
    rc = cli.main(["transform", "--n-max", "2", "--out", "/dev/full"])
    assert rc == 2
    assert "cannot write report to" in capsys.readouterr().err


def test_passing_run_constructs_no_fraction(tmp_path, monkeypatch):
    # Every verdict runs on int: Fraction only writes a failing witness.
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Fraction(1, 2) == Fraction(2, 4) and len(made) == 2  # the wrapper counts
    made.clear()
    assert cli.main(["all", "--jobs", "1", "--format", "json", "--out", str(tmp_path / "a.json")]) == 0
    assert made == []


def test_a_passing_serial_run_imports_no_module_it_does_not_use(tmp_path):
    # A fresh interpreter: the pool modules, pickle, fractions (and the
    # decimal it imports), csv and traceback serve only parallel runs,
    # failing witnesses, CSV reports or the exit-3 path.
    code = (
        "import sys\n"
        "from ivpverify import cli\n"
        f"rc = cli.main(['all', '--jobs', '1', '--format', 'json', '--out', {str(tmp_path / 'a.json')!r}])\n"
        "print(rc, sorted({'multiprocessing', 'concurrent.futures', 'pickle', 'fractions', "
        "'decimal', 'csv', 'traceback'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop(cli.JOBS_ENV, None)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 []\n"


def test_csv_deterministic_across_jobs(tmp_path, monkeypatch, forks):
    # lemma-schmidt is one row per l, both eps inside: three rows at the
    # default l_max, so --jobs 8 on eight cores forks two workers beside
    # the caller.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    base = ["lemma-schmidt", "--n-max", "8", "--format", "csv"]
    assert cli.main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert forks == []
    assert cli.main(base + ["--jobs", "8", "--out", str(b)]) == 0
    assert len(forks) == 2
    assert a.read_bytes() == b.read_bytes()


def test_all_shares_one_worker_pool(tmp_path, monkeypatch, forks):
    # Every task's rows share the one worker `verify all` forks.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # one worker besides the caller
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    base = ["all", "--n-max", "4", "--l-max", "2", "--x-min", "-2", "--x-max", "2",
            "--format", "csv"]
    assert cli.main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert forks == []
    assert cli.main(base + ["--jobs", "2", "--out", str(b)]) == 0
    assert len(forks) == 1
    assert a.read_bytes() == b.read_bytes()


def test_jobs_beyond_the_cores_open_one_worker_per_core(monkeypatch, forks):
    # The caller is one of the processes at work, at most one per core,
    # so four cores give three workers to a run of six rows (q-sun, one
    # per k) or seven (catalan-form, the identity and one row per n),
    # whatever --jobs asks for.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for task in ("catalan-form", "q-sun"):
        report = cli.run(cli.GridConfig(task, n_max=6, jobs=10 ** 6))
        assert report.cases == cli.run(cli.GridConfig(task, n_max=6)).cases
    assert len(forks) == 3 * 2


def test_a_run_opens_no_more_processes_than_it_has_rows(monkeypatch, forks):
    # sun-one is one row: at --jobs 2 the caller runs it and forks no
    # worker.  recurrence's three rows still share one worker; at --jobs
    # 8 on four cores, its three rows fork two workers beside the caller.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = cli.run(cli.GridConfig("sun-one", n_max=20, jobs=2))
    assert forks == []
    assert report.cases == cli.run(cli.GridConfig("sun-one", n_max=20)).cases
    report = cli.run(cli.GridConfig("recurrence", n_max=8, jobs=2))
    assert len(forks) == 1
    assert report.cases == cli.run(cli.GridConfig("recurrence", n_max=8)).cases
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    cli.run(cli.GridConfig("recurrence", n_max=8, jobs=8))
    assert len(forks) == 1 + 2


def test_every_task_is_queued_before_any_result_is_read(monkeypatch, forks, row_log, watch_rows):
    # At --jobs 2 every task's chunk numbers go into the deal, in one
    # write, before the worker is forked and before any row runs, in
    # either process.  Chunk i holds rows[i::count] of the run's rows,
    # _SPLIT chunks per process at work, and each row runs once.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    caller = os.getpid()
    events = []  # in the caller: the deal's write, the fork, every row
    real_write, real_fork, real_take = os.write, os.fork, gridrun._take

    def write(fd, data):
        if os.getpid() == caller:
            events.append(("write", len(data)))
        return real_write(fd, data)

    def fork():
        events.append(("fork",))
        return real_fork()

    dealt = []

    def take(deal, chunks, stop):
        if os.getpid() == caller:
            dealt.append(chunks)
        return real_take(deal, chunks, stop)

    def on_run(row):
        if os.getpid() == caller:
            events.append(("row",))
        row_log.record(repr((row.func.__name__, row.args)))

    watch_rows(on_run)
    monkeypatch.setattr(os, "write", write)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(gridrun, "_take", take)
    config = cli.GridConfig("all", n_max=4, l_max=2, x_min=-2, x_max=2, jobs=2)
    parallel = cli.run(config)
    monkeypatch.undo()  # the serial run and the row lists below go unwatched
    rows = [row for name in cli._TASKS for row in cli._TASKS[name].rows(config)]
    count = min(len(rows), 2 * gridrun._SPLIT)
    assert events[:2] == [("write", count * gridrun._RECORD), ("fork",)]
    assert {event for event in events[2:]} <= {("row",)}
    assert len(forks) == 1

    def calls(rows):
        return [(row.func, row.args) for row in rows]

    (chunks,) = dealt  # of watched rows, each holding its row as its argument
    assert [calls(row.args[0] for row in chunk) for chunk in chunks] == [
        calls(rows[i::count]) for i in range(count)
    ]
    ran = sorted(key for _, key in row_log.read())
    assert ran == sorted(repr((row.func.__name__, row.args)) for row in rows)
    serial = cli.run(dataclasses.replace(config, jobs=1))
    assert [r.cases for r in parallel.reports] == [r.cases for r in serial.reports]


def test_a_raising_row_in_a_worker_exits_three(capsys, monkeypatch, forks):
    # The first task's one row raises in a worker process while the rows
    # of every later task are queued behind it.
    first = next(iter(cli._TASKS))
    broken = dataclasses.replace(cli._TASKS[first], rows=lambda c: [functools.partial(divmod, 1, 0)])
    monkeypatch.setitem(cli._TASKS, first, broken)
    assert cli.main(["all", "--n-max", "4", "--l-max", "2", "--jobs", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: ZeroDivisionError(" in captured.err


def test_a_worker_that_dies_in_a_row_exits_three(capsys, monkeypatch, forks, watch_rows):
    # A worker that leaves without a word, as a crash would, takes its
    # chunk with it: the run fails with the worker's exit code.  The
    # caller takes no chunk until the worker is gone, so the worker
    # surely took one.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    caller = os.getpid()
    real_take = gridrun._take

    def take(deal, chunks, stop):
        if os.getpid() == caller:
            forks.wait_for_exit(forks[0])
        return real_take(deal, chunks, stop)

    def on_run(row):
        if os.getpid() != caller:
            os._exit(7)

    watch_rows(on_run)
    monkeypatch.setattr(gridrun, "_take", take)
    assert cli.main(["all", "--n-max", "4", "--l-max", "2", "--jobs", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"worker process {forks[0]} ended without a result (exit code 7)" in captured.err


def test_empty_out_flag_exits_two(capsys):
    assert cli.main(["transform", "--n-max", "1", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out must name a file" in captured.err


def test_empty_out_in_config_file_exits_two(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"out": ""}))
    assert cli.main(["transform", "--n-max", "1", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out must name a file" in captured.err


def test_json_deterministic_modulo_meta(tmp_path):
    a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
    base = ["telescope", "--n-max", "12", "--format", "json"]
    assert cli.main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert cli.main(base + ["--jobs", "4", "--out", str(b)]) == 0
    left, right = json.loads(a.read_text()), json.loads(b.read_text())
    left.pop("meta"), right.pop("meta")
    assert left == right


def test_all_runs_every_task(tmp_path):
    out = tmp_path / "all.json"
    rc = cli.main(
        ["all", "--n-max", "4", "--l-max", "1", "--k-max", "4",
         "--x-min", "-2", "--x-max", "2", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert [r["task"] for r in payload["reports"]] == list(cli._TASKS)
    assert payload["summary"]["fail"] == 0


def test_eps_parsing():
    assert cli.parse_eps("+1,-1") == (1, -1)
    assert cli.parse_eps("-1") == (-1,)
    assert cli.parse_eps("1") == (1,)
    assert cli.parse_eps([-1, 1, 1]) == (1, -1)
    with pytest.raises(cli.UsageError):
        cli.parse_eps("2")
    with pytest.raises(cli.UsageError):
        cli.parse_eps("")
    with pytest.raises(cli.UsageError):
        cli.GridConfig("theorem1", eps=(-1, 1))  # not canonical: parse_eps sorts it


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"n-max": 3, "format": "csv", "eps": "-1"}))
    rc = cli.main(["transform", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("task,case_key")       # format from config file
    assert len(out.splitlines()) == 1 + 4        # n_max=3 from config file
    rc = cli.main(["transform", "--config", str(cfg), "--n-max", "1", "--format", "text"])
    out = capsys.readouterr().out
    assert rc == 0 and out.endswith("PASS 2/2\n")  # flags beat the file


def test_config_file_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_biggest": 3}))
    assert cli.main(["transform", "--config", str(bad)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    bad.write_text("[1,2]")
    assert cli.main(["transform", "--config", str(bad)]) == 2
    bad.write_text("{broken")
    assert cli.main(["transform", "--config", str(bad)]) == 2
    assert cli.main(["transform", "--config", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
    # An empty path names no file; it is not "no config file".
    assert cli.main(["theorem2", "--n-max", "3", "--config", ""]) == 2
    assert "cannot read config file ''" in capsys.readouterr().err
    # A non-string "out" would be taken as a file descriptor by open().
    bad.write_text(json.dumps({"out": 7}))
    assert cli.main(["transform", "--config", str(bad)]) == 2
    assert "config key 'out' must be a string" in capsys.readouterr().err
    # true == 1 and -1.0 == -1, but neither is an integer eps entry.
    bad.write_text(json.dumps({"eps": [True, -1.0]}))
    assert cli.main(["theorem1", "--config", str(bad)]) == 2
    assert "bad eps entry True" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n-max": 5, "n_max": 7}', "config key 'n_max' is given twice (as 'n-max' and 'n_max')"),
        ('{"n_max": 5, "n_max": 7}', "config key 'n_max' is given twice (as 'n_max' and 'n_max')"),
    ],
    ids=["two-spellings", "verbatim"],
)
def test_config_file_rejects_duplicate_keys(tmp_path, capsys, text, message):
    # json.load keeps the last of two equal keys; either value silently
    # winning would run a grid the file does not state.
    cfg = tmp_path / "twice.json"
    cfg.write_text(text)
    assert cli.main(["theorem2", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("key", ["jobs", "n_max"])
def test_config_file_rejects_booleans_for_integers(tmp_path, capsys, key):
    cfg = tmp_path / "bool.json"
    cfg.write_text(json.dumps({key: True}))
    assert cli.main(["transform", "--config", str(cfg)]) == 2
    assert f"config key {key!r} must be an integer" in capsys.readouterr().err


def test_internal_error_exits_three(capsys, monkeypatch):
    def crash(n_max):
        raise RuntimeError("worker pool died")

    _replace_rows(monkeypatch, "sun-one", crash)
    assert cli.main(["sun-one"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: RuntimeError('worker pool died')" in captured.err


def test_value_error_inside_a_task_exits_three(capsys, monkeypatch):
    # Bounds are validated before a task runs, so a ValueError from a
    # builder is a bug, not a usage error.
    def broken(n_max):
        raise ValueError("builder bug")

    _replace_rows(monkeypatch, "sun-one", broken)
    assert cli.main(["sun-one"]) == 3
    assert "internal error: ValueError('builder bug')" in capsys.readouterr().err


def test_jobs_env_var_is_default(monkeypatch, capsys):
    monkeypatch.setenv(cli.JOBS_ENV, "2")
    assert cli.main(["chu-vandermonde", "--k-max", "3"]) == 0
    capsys.readouterr()
    monkeypatch.setenv(cli.JOBS_ENV, "zero")
    assert cli.main(["chu-vandermonde", "--k-max", "3"]) == 2


def test_config_echo_excludes_execution_details(capsys):
    assert cli.main(["theorem2", "--n-max", "4", "--jobs", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == {"n_max": 4}
