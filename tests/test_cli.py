import ast
import functools
import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import cases, serialize_report
from ivpverify import cli, gridrun, identities
from ivpverify import report as report_module
from ivpverify.report import Block, VerificationReport


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

    def rows(config, tables):
        return [functools.partial(row, *original.args) for original in entry.rows(config, tables)]

    monkeypatch.setitem(cli._TASKS, task, entry._replace(rows=rows))


def test_mathematical_failure_exits_one(capsys, monkeypatch):
    def forced(n_max):
        return Block(("n",), [[n_max]], bytearray([0]), {0: "forced"})

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


class _Recorder:
    """A file object that keeps each string written to it."""

    def __init__(self, fail_with=None):
        self.pieces = []
        self.fail_with = fail_with

    def write(self, piece: str) -> int:
        if self.fail_with is not None:
            raise self.fail_with
        self.pieces.append(piece)
        return len(piece)


_CASE_LINE = {  # whether a line of a piece is one case's
    "json": lambda line: line.lstrip().startswith('"key": '),
    "csv": lambda line: line.startswith("conjecture-final,"),
    "text": lambda line: line.startswith("  l="),
}


@pytest.mark.parametrize("fmt", sorted(_CASE_LINE))
def test_a_report_is_written_as_it_is_formed(monkeypatch, fmt):
    # 16,380 cases go out one slice of at most 1024 cases per write:
    # joining the report first, then writing it, fails here.
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["conjecture-final", "--l-max", "4", "--n-max", "90", "--format", fmt]
    assert cli.main(argv) == 0
    per_piece = [sum(map(_CASE_LINE[fmt], piece.splitlines())) for piece in out.pieces]
    assert sum(per_piece) == 16380
    assert max(per_piece) <= report_module._SLICE
    assert len(out.pieces) >= -(-16380 // report_module._SLICE)


_META = re.compile(r',\n  "meta": \{\n    "wall_time_s": [^\n]*\n  \}')


def _without_wall_time(text: str, fmt: str) -> str:
    if fmt == "json":
        return _META.sub("", text)
    return "".join(line for line in text.splitlines(True) if not line.startswith("wall time: "))


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv, fault, code", [
    ("conjecture-final --l-max 2 --n-max 40", False, 0),  # 1,640 cases: two slices
    ("all --n-max 6", False, 0),
    ("all --n-max 6", True, 1),  # C(4,2) read as 7
])
def test_out_file_stdout_and_serialize_report_give_one_report(
        tmp_path, capsys, monkeypatch, fmt, argv, fault, code):
    if fault:
        original = identities.binom_int
        monkeypatch.setattr(identities, "binom_int", lambda top, k: original(top, k) + 1
                            if (top, k) == (4, 2) else original(top, k))
    args = argv.split() + ["--format", fmt]
    out = tmp_path / "report"
    assert cli.main(args + ["--out", str(out)]) == code
    assert cli.main(args) == code
    stdout = capsys.readouterr().out
    config = cli.resolve_config(cli._PARSER.parse_args(args))
    joined = serialize_report(cli.run(config), fmt, include_meta=False)
    assert _without_wall_time(out.read_text(), fmt) == _without_wall_time(stdout, fmt)
    assert _without_wall_time(stdout, fmt) == _without_wall_time(joined, fmt)


def _late_fault_report() -> VerificationReport:
    # Case 1200 holds a key value json cannot encode: the first slice of
    # cases is written before the piece that holds it is formed.
    ns = list(range(1500))
    ns[1200] = Fraction(1, 2)
    return VerificationReport("demo", {}, [Block(("n",), [ns], bytearray([1]) * 1500, {})])


@pytest.mark.parametrize("to_file", [True, False])
def test_a_fault_after_the_first_pieces_exits_three(tmp_path, capsys, monkeypatch, to_file):
    monkeypatch.setattr(cli, "run", lambda config: _late_fault_report())
    out = tmp_path / "report.json"
    argv = ["transform", "--n-max", "1", "--format", "json"]
    assert cli.main(argv + ["--out", str(out)] if to_file else argv) == 3
    captured = capsys.readouterr()
    assert "internal error: TypeError" in captured.err
    written = out.read_text() if to_file else captured.out
    assert written.startswith('{\n  "task": "demo"')
    assert written.count('"key": ') == report_module._SLICE
    assert (f"the report at {str(out)!r} is incomplete" in captured.err) == to_file


def test_a_failing_write_to_stdout_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _Recorder(fail_with=BrokenPipeError(32, "Broken pipe")))
    assert cli.main(["transform", "--n-max", "2"]) == 2
    assert "cannot write report to stdout" in capsys.readouterr().err


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


# What a fresh `import ivpverify.cli` must not load: the class machinery
# behind dataclasses (inspect, ast, dis), the pool modules, and what
# serves only parallel runs, failing witnesses, CSV reports or exit 3.
def test_a_passing_serial_run_imports_no_module_it_does_not_use():
    # checks/startup.py, which CI runs under every supported Python, in a
    # fresh interpreter: importing the package loads none of the heavy
    # stdlib modules, and passing serial runs load none of those kept to
    # parallel runs, failing witnesses, CSV reports or exit 3.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, os.path.join(_CHECKS, "startup.py")],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_the_package_holds_no_assert_statement():
    # `python -O` strips every assert, so no check of the runtime
    # package may be one: a verdict or bound resting on it would vanish.
    package = os.path.dirname(cli.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


# Run in a fresh interpreter per fault of checks/fault.py's FAULTS, with
# the profiler set before `ivpverify` is imported and two cores seen, as
# the `cores` fixture sets them: it runs `cli.main` over a table of
# argvs, then writes their exit codes and the (file, first line) of
# every code object called under the package.  co_qualname would name
# them, but Python 3.10 has none.
_PROBE = r"""
import json, os, sys

package, checks, fault_name, tmp = sys.argv[1:]
called = set()


def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        called.add((code.co_filename, code.co_firstlineno))


sys.setprofile(record)
sys.path.insert(0, checks)
import fault
from ivpverify import cli

os.cpu_count = lambda: 2
os.sched_getaffinity = lambda pid: {0, 1}
fault.FAULTS[fault_name][0]()
config = os.path.join(tmp, "config.json")
with open(config, "w") as fh:
    json.dump({"n-max": 5, "eps": "-1", "format": "csv", "out": os.path.join(tmp, "out.csv")}, fh)
argvs = [
    *(["all", "--n-max", "6", "--format", fmt] for fmt in ("text", "json", "csv")),
    ["all", "--l-max", "2", "--n-max", "20", "--k-max", "21", "--m", "3"],
    ["q-sun", "--n-max", "12"],
    ["all", "--n-max", "8", "--jobs", "2"],
    ["all", "--config", config],
    ["all", "--x-min", "3", "--x-max", "2"],
]
codes = [cli.main(argv) for argv in argvs]
if fault_name == "none":
    from ivpverify import qpoly

    gate_out, gate_in = os.pipe()
    caller = os.getpid()

    def raising(k, n_max):
        # A worker's row waits for a row of the caller, so the caller
        # surely runs one: every row raises.
        if os.getpid() == caller:
            os.write(gate_in, b"go")
        else:
            os.read(gate_out, 1)
        raise ArithmeticError(f"q-sum row k={k}")

    qpoly.q_sun_sums = raising
    codes.append(cli.main(["q-sun", "--n-max", "6", "--jobs", "2"]))
sys.setprofile(None)
with open(os.path.join(tmp, "probe.json"), "w") as fh:
    json.dump({"codes": codes, "called": sorted(called)}, fh)
"""


_CHECKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "checks")


def _fault_table():
    """checks/fault.py: the report checks' argv table, faults and runner."""
    spec = importlib.util.spec_from_file_location("checks_fault", os.path.join(_CHECKS, "fault.py"))
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    return table


def _defs(tree, prefix=""):
    """(first line, dotted name) of each def under tree, nested ones
    too; a decorated def's code object starts at its first decorator."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield min([node.lineno, *(d.lineno for d in node.decorator_list)]), name
            yield from _defs(node, name + ".")
        else:
            yield from _defs(node, prefix)


def test_every_def_of_the_package_runs_in_some_verify_run(tmp_path):
    # The package holds only what `verify` runs: every def is called by
    # some run of `cli.main`, passing, failing under each fault, in
    # parallel, from a config file, on a usage error or on exit 3.
    package = os.path.dirname(cli.__file__)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(package)}
    env.pop(cli.JOBS_ENV, None)
    probes = {}
    for name in _fault_table().FAULTS:
        (tmp_path / name).mkdir()
        probes[name] = subprocess.Popen(
            [sys.executable, "-c", _PROBE, package + os.sep, _CHECKS, name, str(tmp_path / name)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    called = set()
    for name, probe in probes.items():
        _, err = probe.communicate(timeout=300)
        assert probe.returncode == 0, err
        with open(tmp_path / name / "probe.json") as fh:
            found = json.load(fh)
        # Each fault fails some run and crashes none; the usage error
        # exits 2 and the raising rows 3.
        codes = found["codes"]
        if name == "none":
            assert codes == [0] * 7 + [2, 3]
        else:
            assert codes[-1] == 2 and 1 in codes and set(codes[:-1]) <= {0, 1}, (name, codes)
        called.update(map(tuple, found["called"]))
    never = []
    for file in sorted(os.listdir(package)):
        if file.endswith(".py"):
            path = os.path.join(package, file)
            with open(path) as fh:
                tree = ast.parse(fh.read(), file)
            never += [f"{file[:-3]}.{name}" for line, name in _defs(tree)
                      if (path, line) not in called]
    # A forked worker spends its life in `_work` and leaves by os._exit,
    # so the profile of the process that forked it never sees the call;
    # GridConfig.__setattr__ only refuses an assignment, which no run makes.
    assert never == ["cli.GridConfig.__setattr__", "gridrun._work"]


def test_csv_deterministic_across_jobs(tmp_path, cores, forks):
    # lemma-schmidt is one row per l, both eps inside: three rows at the
    # default l_max, so --jobs 8 on eight cores forks two workers beside
    # the caller.
    cores(8)
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    base = ["lemma-schmidt", "--n-max", "8", "--format", "csv"]
    assert cli.main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert forks == []
    assert cli.main(base + ["--jobs", "8", "--out", str(b)]) == 0
    assert len(forks) == 2
    assert a.read_bytes() == b.read_bytes()


def test_all_shares_one_worker_pool(tmp_path, cores, forks):
    # Every task's rows share the one worker `verify all` forks.
    cores(2)  # one worker besides the caller
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    base = ["all", "--n-max", "4", "--l-max", "2", "--x-min", "-2", "--x-max", "2",
            "--format", "csv"]
    assert cli.main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert forks == []
    assert cli.main(base + ["--jobs", "2", "--out", str(b)]) == 0
    assert len(forks) == 1
    assert a.read_bytes() == b.read_bytes()


def test_jobs_beyond_the_cores_open_one_worker_per_core(cores, forks):
    # The caller is one of the processes at work, at most one per core,
    # so four cores give three workers to a run of six rows (q-sun, one
    # per k) or seven (catalan-form, the identity and one row per n),
    # whatever --jobs asks for.
    cores(4)
    for task in ("catalan-form", "q-sun"):
        report = cli.run(cli.GridConfig(task, n_max=6, jobs=10 ** 6))
        assert cases(report) == cases(cli.run(cli.GridConfig(task, n_max=6)))
    assert len(forks) == 3 * 2


def test_a_run_opens_no_more_processes_than_it_has_rows(cores, forks):
    # sun-one is one row: at --jobs 2 the caller runs it and forks no
    # worker.  recurrence's three rows still share one worker; at --jobs
    # 8 on four cores, its three rows fork two workers beside the caller.
    cores(2)
    report = cli.run(cli.GridConfig("sun-one", n_max=20, jobs=2))
    assert forks == []
    assert cases(report) == cases(cli.run(cli.GridConfig("sun-one", n_max=20)))
    report = cli.run(cli.GridConfig("recurrence", n_max=8, jobs=2))
    assert len(forks) == 1
    assert cases(report) == cases(cli.run(cli.GridConfig("recurrence", n_max=8)))
    cores(4)
    cli.run(cli.GridConfig("recurrence", n_max=8, jobs=8))
    assert len(forks) == 1 + 2


def test_an_affinity_of_one_cpu_forks_no_worker(monkeypatch, capsys, forks):
    # Under `taskset -c 0` the process may run on one CPU of two: the
    # affinity mask, not the machine's core count, bounds the processes.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.main(["q-sun", "--n-max", "10", "--jobs", "2", "--format", "csv"]) == 0
    assert forks == []
    parallel = capsys.readouterr().out
    assert cli.main(["q-sun", "--n-max", "10", "--jobs", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == parallel


def test_every_task_is_queued_before_any_result_is_read(monkeypatch, cores, forks, row_log,
                                                        watch_rows):
    # At --jobs 2 every task's chunk numbers go into the deal, in one
    # write, before the worker is forked and before any row runs, in
    # either process.  Chunk i holds rows[i::count] of the run's rows,
    # one chunk per row up to _MAX_CHUNKS rows, and each row runs once.
    cores(2)
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

    def take(deal, chunks):
        if os.getpid() == caller:
            dealt.append(chunks)
        return real_take(deal, chunks)

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
    rows = [row for task_rows in cli._task_rows(config).values() for row in task_rows]
    count = min(len(rows), gridrun._MAX_CHUNKS)
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
    serial = cli.run(cli.GridConfig("all", n_max=4, l_max=2, x_min=-2, x_max=2, jobs=1))
    assert [cases(r) for r in parallel.reports] == [cases(r) for r in serial.reports]


def test_a_raising_row_in_a_worker_exits_three(capsys, monkeypatch, forks):
    # The first task's one row raises in a worker process while the rows
    # of every later task are queued behind it.
    first = next(iter(cli._TASKS))
    broken = cli._TASKS[first]._replace(rows=lambda c, t: [functools.partial(divmod, 1, 0)])
    monkeypatch.setitem(cli._TASKS, first, broken)
    assert cli.main(["all", "--n-max", "4", "--l-max", "2", "--jobs", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: ZeroDivisionError(" in captured.err


def test_a_worker_that_dies_in_a_row_exits_three(capsys, monkeypatch, cores, forks, watch_rows):
    # A worker that leaves without a word, as a crash would, takes its
    # chunk with it: the run fails with the worker's exit code.  The
    # caller takes no chunk until the worker is gone, so the worker
    # surely took one.
    cores(2)
    caller = os.getpid()
    real_take = gridrun._take

    def take(deal, chunks):
        if os.getpid() == caller:
            forks.wait_for_exit(forks[0])
        return real_take(deal, chunks)

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


def test_the_report_checks_table_parses_and_names_every_task(monkeypatch):
    """checks/fault.py holds the argvs that checks/reports.py and
    checks/parity.py run: a renamed flag or task fails here, not in a
    minutes-long check."""
    table = _fault_table()
    monkeypatch.delenv(cli.JOBS_ENV, raising=False)
    argvs = table.argvs()
    tasks = set()
    for argv in argvs:
        for jobs in table.jobs_of(argv):
            args = cli._PARSER.parse_args([*argv.split(), "--jobs", str(jobs)])
            tasks.add(cli.resolve_config(args).task)
    assert tasks == {*cli._TASKS, "all"}
    assert len(set(argvs)) == len(argvs)
    for name, (_, bites) in table.FAULTS.items():
        assert set(bites) <= set(argvs)
        assert bool(bites) == (name != "none")


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


def test_a_grid_config_takes_only_its_fields_and_cannot_change():
    config = cli.GridConfig("theorem1", n_max=5)
    assert (config.task, config.n_max, config.l_max) == ("theorem1", 5, 3)
    with pytest.raises(AttributeError):
        config.n_max = 6
    with pytest.raises(AttributeError):
        del config.n_max
    assert config.n_max == 5
    with pytest.raises(TypeError, match="n_maxx"):
        cli.GridConfig("theorem1", n_maxx=5)


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


@pytest.mark.parametrize("value", ["0", "-2"])
def test_jobs_env_var_below_one_names_the_variable(monkeypatch, capsys, value):
    # The bad count came from the environment, not from a --jobs flag.
    monkeypatch.setenv(cli.JOBS_ENV, value)
    assert cli.main(["telescope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cli.JOBS_ENV} must be >= 1, got {value!r}\n"


def test_config_echo_excludes_execution_details(capsys):
    assert cli.main(["theorem2", "--n-max", "4", "--jobs", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == {"n_max": 4}
