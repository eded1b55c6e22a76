import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hexaudit.audit as audit_module
from hexaudit import cli
from hexaudit.cli import main
from hexaudit.formats import dump_lineset, load_lineset


def run_cli(*args, cwd=None):
    """Run the CLI in a fresh interpreter; a run that hangs fails the test."""
    return subprocess.run(
        [sys.executable, "-m", "hexaudit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=30,
    )


def assert_one_error_line(err, needle):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err


def must_not_compute(monkeypatch, name):
    """Make cli.<name> fail the test if it is reached: an unwritable output
    must be detected before the work it would hold."""

    def fail(*args, **kwargs):
        pytest.fail(f"cli.{name} ran before the output was opened")

    monkeypatch.setattr(cli, name, fail)


@pytest.mark.parametrize("command", ["build", "audit", "classify4", "search"])
def test_failed_work_keeps_the_old_output(tmp_path, monkeypatch, command):
    """The output is checked before the work and written once after it, so
    a run that raises leaves an old file byte for byte and creates none."""
    h2, spec = tmp_path / "h2.pgls", tmp_path / "spec.json"
    main(["build", "--q", "2", "--out", str(h2)])
    spec.write_text(json.dumps({"n": 4, "q": 2, "axioms": ["Pt"], "budget": 5}))
    old = tmp_path / "old.out"
    argv, compute, written = {
        "build": (["build", "--q", "2", "--out"], "build", old),
        "audit": (["audit", "--in", str(h2), "--out"], "audit", old),
        "classify4": (["classify4", "--q", "2", "--out"], "parabolic_quadric", old),
        "search": (["search", "--spec", str(spec), "--out-prefix"],
                   "run_search", tmp_path / "old.out.log"),
    }[command]
    written.write_bytes(b"old bytes\n")
    before = sorted(tmp_path.iterdir())

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, compute, interrupted)
    for out in (old, tmp_path / "fresh.out"):
        with pytest.raises(KeyboardInterrupt):
            main([*argv, str(out)])
    assert written.read_bytes() == b"old bytes\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--q", "2"],
        ["audit", "--in", "h2.pgls"],
        ["classify4", "--q", "2"],
    ],
    ids=["build", "audit", "classify4"],
)
def test_out_to_dev_null(tmp_path, monkeypatch, argv):
    """An output that cannot be truncated or read back still takes the
    whole text in one write."""
    monkeypatch.chdir(tmp_path)
    main(["build", "--q", "2", "--out", "h2.pgls"])
    assert main([*argv, "--out", "/dev/null"]) == 0


def test_out_to_dev_stdout_matches_dash(tmp_path):
    """Into a pipe, ``--out /dev/stdout`` prints the bytes of ``--out -``."""
    h2 = tmp_path / "h2.pgls"
    main(["build", "--q", "2", "--out", str(h2)])
    dash, dev = (run_cli("audit", "--in", str(h2), "--out", out) for out in ("-", "/dev/stdout"))
    assert dash.returncode == dev.returncode == 0
    assert dev.stdout == dash.stdout and dev.stderr == dash.stderr
    assert dash.stdout.startswith("{")


def test_document_on_stdout_stands_alone(tmp_path, capsys):
    """With ``--out -`` stdout holds the document and nothing else, so that
    ``build > h2.pgls`` can be audited; the summary lines go to stderr."""
    assert main(["build", "--q", "2", "--out", "-"]) == 0
    out, err = capsys.readouterr()
    assert dump_lineset(load_lineset(out)) == out
    assert err == "H(2): 63 lines, 63 points\n"
    h2 = tmp_path / "h2.pgls"
    h2.write_text(out)
    assert main(["audit", "--in", str(h2), "--out", "-"]) == 0
    out, err = capsys.readouterr()
    assert all(json.loads(out)["verdicts"].values())
    assert err.splitlines() == [f"{a}: pass" for a in json.loads(out)["axioms"]]
    assert main(["classify4", "--q", "2", "--out", "-"]) == 0
    out, err = capsys.readouterr()
    assert sum(json.loads(out)["histogram"].values()) == 2667
    assert err.endswith("total: 2667\n")


@pytest.mark.parametrize("command", ["build", "audit", "classify4", "search"])
def test_empty_output_path_is_usage_error(tmp_path, monkeypatch, capsys, command):
    """An empty output path names no file: refused before the work, and
    nothing written, not read as a default."""
    h2, spec = tmp_path / "h2.pgls", tmp_path / "spec.json"
    main(["build", "--q", "2", "--out", str(h2)])
    spec.write_text(json.dumps({"n": 4, "q": 2, "axioms": ["Pt"], "budget": 5}))
    argv, compute = {
        "build": (["build", "--q", "2", "--out"], "build"),
        "audit": (["audit", "--in", str(h2), "--out"], "audit"),
        "classify4": (["classify4", "--q", "2", "--out"], "parabolic_quadric"),
        "search": (["search", "--spec", str(spec), "--out-prefix"], "run_search"),
    }[command]
    must_not_compute(monkeypatch, compute)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main([*argv, ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_error_line(err, "")
    assert sorted(tmp_path.iterdir()) == before


def _into_closed_pipe(args, unbuffered):
    """Run the CLI with stdout the write end of a pipe whose read end is
    closed, with ``PYTHONUNBUFFERED`` set or unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "hexaudit", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=30,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--q", "2", "--out", "-"],
        ["audit", "--in", "{h2}", "--out", "-"],
        ["audit", "--in", "{h2}", "--out", "/dev/stdout"],
        ["polygon", "--in", "{h2}", "--k", "6", "--graph"],
        ["classify4", "--q", "2"],
        ["srg", "--q", "2"],
    ],
    ids=["build", "audit", "audit-dev-stdout", "polygon", "classify4", "srg"],
)
def test_closed_stdout_exits_1_quietly(tmp_path, argv, unbuffered):
    """A reader that closed the pipe cuts the output: exit 1, not the usage
    code 2, and nothing on stderr, with or without output buffering."""
    h2 = tmp_path / "h2.pgls"
    main(["build", "--q", "2", "--out", str(h2)])
    r = _into_closed_pipe([a.format(h2=h2) for a in argv], unbuffered)
    assert (r.returncode, r.stderr) == (1, "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_leaving_mid_document_exits_1_quietly(unbuffered):
    """A reader that takes one byte of the H(5) PGLS (113 KB, more than a
    pipe holds) and leaves cuts the document: exit 1 and nothing on stderr.
    Unbuffered, the write that the reader's exit cuts short takes a part of
    the bytes and returns; the rest must still meet the closed pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    reader = subprocess.Popen([sys.executable, "-c", "import os; os.read(0, 1)"], stdin=read_end)
    os.close(read_end)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "hexaudit", "build", "--q", "5", "--out", "-"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
        reader.wait(timeout=30)
    assert (r.returncode, r.stderr) == (1, "")


_ARGPARSE_OUTPUT = {"version": ["--version"], "help": ["--help"], "build-help": ["build", "--help"]}


@pytest.mark.parametrize(
    "argv, unbuffered",
    [(a, False) for a in _ARGPARSE_OUTPUT.values()]
    + [(a, True) for a in _ARGPARSE_OUTPUT.values()],
    ids=[*_ARGPARSE_OUTPUT, *(f"{i}-unbuffered" for i in _ARGPARSE_OUTPUT)],
)
def test_closed_stdout_after_argparse_exits_1_quietly(argv, unbuffered):
    """What argparse prints itself before it exits also meets the closed
    pipe: exit 1 and nothing on stderr, buffered (in the flush) or
    unbuffered (in the write, whose error argparse alone would drop)."""
    r = _into_closed_pipe(argv, unbuffered)
    assert (r.returncode, r.stderr) == (1, "")


def test_import_loads_no_code_generators():
    """Importing the CLI loads neither ``dataclasses`` nor what it imports
    to generate code, nor ``hashlib`` and its OpenSSL binding, on a bare
    interpreter with no site hooks."""
    src = str(Path(cli.__file__).resolve().parents[1])
    heavy = {"dataclasses", "inspect", "ast", "dis", "hashlib", "_hashlib"}
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hexaudit.cli; "
        f"print(sorted({heavy!r} & set(sys.modules)))"
    )
    r = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=30
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")


class TestLargeQ:
    """A q above the field limit is refused before it is factored: trial
    division of a large prime would run for minutes."""

    def test_audit(self, tmp_path):
        path = tmp_path / "big.pgls"
        path.write_text(f"PGLS 1\nn 3\nq {2**61 - 1}\n1 0 0 0, 0 1 0 0\n")
        r = run_cli("audit", "--in", str(path))
        assert r.returncode == 2
        assert_one_error_line(r.stderr, "not supported")

    def test_search(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 3, "q": 2**61 - 1, "axioms": ["Pt"], "budget": 5}))
        r = run_cli("search", "--spec", str(spec), "--out-prefix", str(tmp_path / "run"))
        assert r.returncode == 2
        assert_one_error_line(r.stderr, "not supported")
        assert list(tmp_path.iterdir()) == [spec]

    def test_build(self):
        r = run_cli("build", "--q", str(10**18 + 3))
        assert r.returncode == 2 and r.stdout == ""
        assert_one_error_line(r.stderr, "unsupported q=")
        assert "prime power" not in r.stderr

    def test_srg(self):
        r = run_cli("srg", "--q", str(10**400))
        assert r.returncode == 2 and r.stdout == ""
        assert_one_error_line(r.stderr, "too large")


@pytest.fixture()
def empty_file(tmp_path):
    path = tmp_path / "empty.pgls"
    path.write_text("PGLS 1\nn 3\nq 2\n")
    return path


class TestBuild:
    def test_build_q2(self, tmp_path):
        out = tmp_path / "h2.pgls"
        assert main(["build", "--q", "2", "--out", str(out)]) == 0
        ls = load_lineset(out.read_text())
        assert len(ls) == 63

    def test_build_unsupported_q(self, capsys):
        assert main(["build", "--q", "7"]) == 2
        assert main(["build", "--q", "6"]) == 2
        err = capsys.readouterr().err
        assert "not a prime power" in err

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        must_not_compute(monkeypatch, "build")
        out = tmp_path / "missing" / "h2.pgls"
        assert main(["build", "--q", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, str(out))

    def test_build_replaces_a_longer_file(self, tmp_path):
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        old.write_bytes(b"x" * 10**5)
        main(["build", "--q", "2", "--out", str(fresh)])
        main(["build", "--q", "2", "--out", str(old)])
        assert old.read_bytes() == fresh.read_bytes()

    def test_build_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["build", "--q", "2", "--out", str(a)])
        main(["build", "--q", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestAudit:
    @pytest.fixture()
    def h2_file(self, tmp_path):
        out = tmp_path / "h2.pgls"
        main(["build", "--q", "2", "--out", str(out)])
        return out

    def test_audit_pass(self, h2_file, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code = main(["audit", "--in", str(h2_file), "--out", str(rep)])
        assert code == 0
        assert "Pt: pass" in capsys.readouterr().out
        doc = json.loads(rep.read_text())
        assert doc["tool"] == "hexaudit"
        assert doc["kind"] == "audit"
        assert all(doc["verdicts"].values())
        assert doc["totals"] == {"lines": 63, "points": 63, "span_dim": 6}

    def test_audit_axiom_subset(self, h2_file, tmp_path):
        rep = tmp_path / "rep.json"
        code = main(
            ["audit", "--in", str(h2_file), "--axioms", "Pt,Pl", "--out", str(rep)]
        )
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["axioms"] == ["Pt", "Pl"]

    def test_audit_violation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgls"
        bad.write_text(
            "PGLS 1\nn 3\nq 2\n1 0 0 0, 0 1 0 0\n1 0 0 0, 0 0 1 0\n"
        )
        code = main(["audit", "--in", str(bad), "--axioms", "Pt", "--out", "-"])
        assert code == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["verdicts"] == {"Pt": False}
        assert "Pt: FAIL" in err

    def test_audit_internal_error_exits_1(self, h2_file, capsys, monkeypatch):
        """A kernel that overcounts makes the count-1 entry negative."""
        monkeypatch.setattr(audit_module, "gaussian_binomial", lambda n, k, q: 0)
        argv = ["audit", "--in", str(h2_file), "--axioms", "Pl", "--out", "-"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("internal consistency error: ") and err.count("\n") == 1

    def test_audit_help_names_every_axiom(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "120")  # argparse wraps help to it
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--help"])
        assert exc.value.code == 0
        assert "Pt,Pl,Sd,Sd',4d,Hp,Hp',To,6d" in capsys.readouterr().out

    def test_audit_missing_file(self, capsys):
        assert main(["audit", "--in", "/nonexistent.pgls"]) == 2

    def test_audit_unknown_axiom_is_usage_error(self, h2_file, capsys):
        assert main(["audit", "--in", str(h2_file), "--axioms", "Foo"]) == 2
        assert_one_error_line(capsys.readouterr().err, "unknown axiom name")

    def test_audit_empty_axioms_is_usage_error(self, tmp_path, capsys):
        """An empty ``--axioms`` names no axiom: refused, not read as all."""
        one = tmp_path / "one.pgls"
        one.write_text("PGLS 1\nn 3\nq 2\n1 0 0 0, 0 1 0 0\n")
        assert main(["audit", "--in", str(one), "--axioms", ""]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: unknown axiom name: ''\n"

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("PGLS 1\nn 3\nn 4\nq 2\n1 0 0 0 0, 0 1 0 0 0\n", "repeated header field 'n'"),
            # A body line that spans no line: a repeated point, a scalar
            # multiple of one, and a zero row.
            ("PGLS 1\nn 4\nq 2\n0 1 1 0 1, 0 1 1 0 1\n", "not a line: projdim 0"),
            ("PGLS 1\nn 4\nq 3\n2 0 0 0 0, 1 0 0 0 0\n", "not a line: projdim 0"),
            ("PGLS 1\nn 4\nq 3\n0 0 0 0 0, 0 1 2 0 1\n", "not a line: projdim 0"),
            (
                "PGLS 1\nn 10\nq 13\n1 0 0 0 0 0 0 0 0 0 0, 0 1 0 0 0 0 0 0 0 0 0\n",
                "PG(10, 13) has more than 1048576 points",
            ),
        ],
    )
    def test_audit_unusable_file_is_usage_error(self, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.pgls"
        bad.write_text(text)
        assert main(["audit", "--in", str(bad)]) == 2
        assert_one_error_line(capsys.readouterr().err, reason)

    def test_audit_empty_file_is_usage_error(self, empty_file, capsys):
        assert main(["audit", "--in", str(empty_file)]) == 2
        assert_one_error_line(capsys.readouterr().err, "empty")

    def test_audit_unwritable_out_is_usage_error(
        self, h2_file, tmp_path, capsys, monkeypatch
    ):
        must_not_compute(monkeypatch, "audit")
        out = tmp_path / "missing" / "r.json"
        assert main(["audit", "--in", str(h2_file), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, str(out))

    def test_audit_report_deterministic(self, h2_file, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["audit", "--in", str(h2_file), "--out", str(r1)])
        main(["audit", "--in", str(h2_file), "--out", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()


class TestPolygon:
    @pytest.fixture()
    def h2_file(self, tmp_path):
        out = tmp_path / "h2.pgls"
        main(["build", "--q", "2", "--out", str(out)])
        return out

    def test_no_pentagon(self, h2_file, capsys):
        assert main(["polygon", "--in", str(h2_file), "--k", "5"]) == 0
        assert capsys.readouterr().out.strip() == "none"

    def test_hexagon_and_graph(self, h2_file, capsys):
        assert main(["polygon", "--in", str(h2_file), "--k", "6", "--graph"]) == 0
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        assert len(first.split()) == 6
        assert "incidence girth: 12" in out
        assert "incidence diameter: 6" in out

    def test_bad_k(self, h2_file, capsys):
        assert main(["polygon", "--in", str(h2_file), "--k", "9"]) == 2

    def test_empty_file_is_usage_error(self, empty_file, capsys):
        assert main(["polygon", "--in", str(empty_file), "--k", "6", "--graph"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err, "empty")


class TestClassify4:
    def test_q2_histogram(self, tmp_path, capsys):
        rep = tmp_path / "cls.json"
        assert main(["classify4", "--q", "2", "--out", str(rep)]) == 0
        out = capsys.readouterr().out
        assert "total: 2667" in out
        doc = json.loads(rep.read_text())
        assert doc["histogram"] == {
            "cone-over-elliptic": 378,
            "cone-over-hyperbolic": 630,
            "line-cone-over-conic": 315,
            "parabolic-Q4": 1344,
        }

    def test_unsupported_q(self, capsys):
        assert main(["classify4", "--q", "4"]) == 2

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        must_not_compute(monkeypatch, "parabolic_quadric")
        out = tmp_path / "missing" / "c.json"
        assert main(["classify4", "--q", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, str(out))


class TestSrg:
    def test_q2_feasible(self, capsys):
        assert main(["srg", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "(10, 3, 0, 1)" in out
        assert "eigenvalues (standard sign): 1, -2" in out

    def test_q3_infeasible(self, capsys):
        assert main(["srg", "--q", "3"]) == 1
        assert "not an odd square" in capsys.readouterr().out

    def test_bad_q(self, capsys):
        assert main(["srg", "--q", "1"]) == 2


class TestSearch:
    def test_search_and_replay(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "n": 4,
                    "q": 2,
                    "axioms": ["Pt", "Pl", "Sd"],
                    "seed": 7,
                    "budget": 150,
                    "target": "any",
                }
            )
        )
        p1 = tmp_path / "one"
        p2 = tmp_path / "two"
        assert main(["search", "--spec", str(spec), "--out-prefix", str(p1)]) == 0
        assert main(["search", "--spec", str(spec), "--out-prefix", str(p2)]) == 0
        assert (
            (p1.parent / "one.log").read_bytes()
            == (p2.parent / "two.log").read_bytes()
        )

    def test_plane_search_ends_none(self, tmp_path, capsys):
        """In PG(2, q) there are no solids to count; the walk still runs."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 2, "q": 2, "axioms": ["Pt", "Pl"], "budget": 20}))
        prefix = tmp_path / "plane"
        assert main(["search", "--spec", str(spec), "--out-prefix", str(prefix)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "none"
        assert (tmp_path / "plane.log").read_text().endswith("outcome: none\n")

    def test_point_axiom_search_finds_the_plane(self, tmp_path, capsys):
        """With (Pt) alone the caps are those of (Pt): the 7 lines of
        PG(2, 2) pass it, and the search finds them."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"n": 2, "q": 2, "axioms": ["Pt"], "budget": 500, "target": "any"}
        ))
        prefix = tmp_path / "pt"
        assert main(["search", "--spec", str(spec), "--out-prefix", str(prefix)]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("found: 7 lines")
        assert (tmp_path / "pt.log").read_text().endswith("outcome: found\n")
        lines = tmp_path / "pt.lines"
        assert len(load_lineset(lines.read_text())) == 7
        assert main(["audit", "--in", str(lines), "--axioms", "Pt"]) == 0

    def test_unwritable_out_prefix_is_usage_error(self, tmp_path, capsys, monkeypatch):
        must_not_compute(monkeypatch, "run_search")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 4, "q": 2, "axioms": ["Pt"], "budget": 5}))
        prefix = tmp_path / "missing" / "run"
        assert main(["search", "--spec", str(spec), "--out-prefix", str(prefix)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, str(prefix))

    def test_unwritable_lines_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        """``<prefix>.lines`` is checked before the walk, as ``.log`` is: a
        directory in its place refuses the run and leaves no new file."""
        must_not_compute(monkeypatch, "run_search")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"n": 2, "q": 2, "axioms": ["Pt"], "budget": 500, "target": "any"}
        ))
        (tmp_path / "pt.lines").mkdir()
        before = sorted(tmp_path.iterdir())
        prefix = tmp_path / "pt"
        assert main(["search", "--spec", str(spec), "--out-prefix", str(prefix)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "pt.lines")
        assert sorted(tmp_path.iterdir()) == before

    def test_unwritable_log_leaves_no_lines_file(self, tmp_path, capsys, monkeypatch):
        must_not_compute(monkeypatch, "run_search")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 2, "q": 2, "axioms": ["Pt"], "budget": 5}))
        (tmp_path / "pt.log").mkdir()
        before = sorted(tmp_path.iterdir())
        prefix = tmp_path / "pt"
        assert main(["search", "--spec", str(spec), "--out-prefix", str(prefix)]) == 2
        assert_one_error_line(capsys.readouterr().err, "pt.log")
        assert sorted(tmp_path.iterdir()) == before

    def test_none_run_leaves_lines_file_alone(self, tmp_path, capsys):
        """A run that ends ``none`` creates no ``.lines`` file and keeps an
        existing one byte for byte."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 2, "q": 2, "axioms": ["Pt", "Pl"], "budget": 20}))
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        (tmp_path / "old.lines").write_bytes(b"old bytes\n")
        for prefix in (fresh, old):
            assert main(["search", "--spec", str(spec), "--out-prefix", str(prefix)]) == 0
            assert capsys.readouterr().out.splitlines()[0] == "none"
        assert not (tmp_path / "fresh.lines").exists()
        assert (tmp_path / "old.lines").read_bytes() == b"old bytes\n"

    def test_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 4, "q": 2, "axioms": ["Zz"]}))
        assert main(["search", "--spec", str(spec)]) == 2
        assert "bad search spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, reason",
        [
            ({"n": 11, "q": 2, "axioms": ["Pt"]}, "ambient dimension 11"),
            ([], "bad search spec"),
            ({"n": 4, "q": 2, "axioms": ["Pt"], "mdoe": "local-swap"}, "'mdoe'"),
            ({"n": 4, "q": 2, "axioms": ["Pt"], "budegt": 5}, "'budegt'"),
            ({"n": 4, "q": 2, "axioms": ["Pt"], "seed": 1.9}, "seed"),
            ({"n": 4, "q": 2, "axioms": ["Pt"], "budget": 5.0}, "budget"),
            ({"n": 4, "q": 2, "axioms": ["Pt"], "budget": True}, "budget"),
            ({"n": "4", "q": 2, "axioms": ["Pt"]}, "n must"),
            ({"n": 4, "q": False, "axioms": ["Pt"]}, "q must"),
            ({"n": 4, "q": 2, "axioms": [1]}, "axioms must be a list of strings"),
            ({"n": 4, "q": 2, "axioms": "Pt"}, "axioms must be a list of strings"),
            ({"q": 2, "axioms": ["Pt"]}, "missing required key 'n'"),
            ({"n": 0, "q": 2, "axioms": ["Pt"], "budget": 5}, "n must be at least 2"),
            ({"n": 1, "q": 2, "axioms": ["Pt"], "budget": 5}, "n must be at least 2"),
            ({"n": 10, "q": 16, "axioms": ["Pt"], "budget": 5}, "more than 1048576 points"),
        ],
    )
    def test_unusable_spec_is_usage_error(self, tmp_path, capsys, doc, reason):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["search", "--spec", str(spec)]) == 2
        assert_one_error_line(capsys.readouterr().err, reason)


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.make_parser() is cli.make_parser()

    def test_usage_error_after_another_command(self, tmp_path, capsys):
        """The parser is built once and reused: a usage error after an
        ``srg`` run in the same process reads as it does alone."""
        argv = ["audit", "--in", str(tmp_path / "missing.pgls")]
        alone = run_cli(*argv)
        assert main(["srg", "--q", "2"]) == 0
        capsys.readouterr()
        assert main(argv) == alone.returncode == 2
        err = capsys.readouterr().err
        assert_one_error_line(err, "missing.pgls")
        assert err == alone.stderr


class TestSubprocessEntry:
    def test_module_entry_point(self, tmp_path):
        """End to end through the real interpreter: build then audit."""
        out = tmp_path / "h2.pgls"
        r = run_cli("build", "--q", "2", "--out", str(out))
        assert r.returncode == 0
        assert "H(2): 63 lines, 63 points" in r.stdout
        r = run_cli("audit", "--in", str(out), "--axioms", "Pt,Pl,Sd")
        assert r.returncode == 0

    def test_version_flag(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert r.stdout.startswith("hexaudit ")

    def test_no_command_is_usage_error(self):
        assert run_cli().returncode == 2
