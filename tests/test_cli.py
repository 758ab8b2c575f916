import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fakedegrees import bijections, cli, fakedeg
from fakedegrees.bijections import RuleError
from fakedegrees.cli import main
from fakedegrees.fakedeg import d_rep
from fakedegrees.verify import route_record


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_type_d_known_value(capsys):
    code, out, _ = run(capsys, "compute", "--group", "d", "--pair", "1,1|1")
    assert code == 0
    assert out.strip() == "q^3 + q^4 + q^5"


def test_compute_bc_empty_pair(capsys):
    code, out, _ = run(capsys, "compute", "--group", "bc", "--pair", "|")
    assert code == 0
    assert out.strip() == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--group", "d", "--pair", "2|1"),
        ("poincare", "--group", "bc", "--n", "3"),
        ("poincare", "--group", "d", "--n", "3"),
    ],
    ids=["compute-d", "poincare-bc", "poincare-d"],
)
def test_d_other_than_2_is_refused_outside_wreath(capsys, argv):
    """Types B/C and D are the d = 2 case: another --d is a usage error,
    not the d = 2 answer; --d 2, the default, is accepted."""
    code, out, err = run(capsys, *argv, "--d", "5")
    assert (code, out) == (2, "")
    assert err == "error: types B/C/D take d = 2, got d = 5\n"
    code, out, _ = run(capsys, *argv, "--d", "2")
    assert code == 0 and out
    assert out == run(capsys, *argv)[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("--group", "bc", "--pair", "2|1"),
        ("--group", "wreath", "--d", "3", "--multi", "1|1|"),
        ("--group", "d", "--pair", "2|1"),
    ],
    ids=["bc", "wreath", "d-unequal"],
)
def test_marker_is_refused_where_it_names_nothing(capsys, argv):
    """--marker 2 tells apart the two representations of an
    equal-component type-D pair only; anywhere else it is a usage error,
    not the marker-1 answer."""
    code, out, err = run(capsys, "compute", *argv, "--marker", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "marker" in err
    assert run(capsys, "compute", *argv, "--marker", "1")[0] == 0


def test_enumerate_into_a_closed_pipe_exits_141_quietly():
    """A reader that stops early, as `head` does, ends the listing with
    exit 141 (128 + SIGPIPE) and no traceback."""
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fakedegrees.cli", "enumerate", "--kind", "sdt",
         "--shape", "8,6,4,2", "--with-maj"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"[(1,1),(2,1)]")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter that imports the package, its CLI and its
    verifier, as every CLI run and benchmark worker does, pays for
    neither `dataclasses` nor the `inspect` it pulls in."""
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import sys, fakedegrees, fakedegrees.cli, fakedegrees.verify; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_compute_route_all_agreement(capsys):
    code, out, _ = run(
        capsys, "compute", "--group", "bc", "--pair", "1,1|1", "--route", "all"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verdict: agree"
    assert all("q^3 + q^5 + q^7" in line for line in lines[:-1])
    assert len(lines) == 4


def test_compute_json(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--group", "wreath", "--d", "2", "--multi", "1,1|1",
        "--route", "all", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["routes"]["formula"]["coeffs"] == [0, 0, 0, 1, 0, 1, 0, 1]


def test_compute_type_d_route_all_json(capsys):
    code, out, _ = run(
        capsys, "compute", "--group", "d", "--pair", "2,1|1", "--route", "all",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data["routes"]) == {"tuple", "domino", "shifted"}
    assert data["agree"] is True
    assert len({tuple(r["coeffs"]) for r in data["routes"].values()}) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("--group", "wreath", "--d", "2", "--multi", "1|1"),
        ("--group", "d", "--pair", "1|1"),
    ],
)
def test_compute_unknown_route_per_group(capsys, argv):
    code, _, err = run(capsys, "compute", *argv, "--route", "nope")
    assert code == 2
    assert err.startswith("error:")


def broken_flip(cells, trace=None):
    """A flip rule that fails on every tableau, naming the input pair."""
    raise RuleError(f"flip procedure cannot match the descent set of {bijections.pair_of(cells)}")


def test_compute_rule_error_exits_3(capsys, monkeypatch):
    """A broken flip rule exits 3 from `compute` and becomes a failing
    record naming the domino tableau."""
    monkeypatch.setattr(bijections, "_flip", broken_flip)
    code, out, err = run(
        capsys, "compute", "--group", "d", "--pair", "4|2,1", "--route", "domino"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: flip procedure cannot match the descent set")
    record = route_record("typeD(7)", "4|2,1", d_rep(((4,), (2, 1))), ("domino",))
    assert record["agree"] is False
    assert record["error"].startswith("domino route: flip procedure cannot match")
    assert [d["label"] for d in record["tableau"]] == list(range(1, 8))
    assert "candidates" not in record


def test_verify_rule_error_exits_3(capsys, monkeypatch):
    """The same broken flip rule makes the bijection sweep exit 3, with a
    failing record per pair shape that names the error and the tableau."""
    monkeypatch.setattr(bijections, "_flip", broken_flip)
    code, out, err = run(capsys, "verify", "--suite", "bijections", "--max-n", "3")
    assert code == 3
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records and all(r["agree"] is False for r in records)
    assert all(r["error"].startswith("flip procedure cannot match") for r in records)
    assert all("tableau" in r for r in records)
    assert [d["label"] for d in records[-1]["tableau"]] == [1, 2, 3]
    assert "internal rule errors" in err


@pytest.mark.parametrize(
    "label",
    [(), ("--pair", "1|1", "--multi", "2|"), ("--multi", "2|", "--pair", "1|1")],
    ids=["neither", "pair-and-multi", "multi-and-pair"],
)
def test_compute_takes_exactly_one_label(capsys, label):
    """Neither --pair nor --multi, or both, is a usage error: the label is
    never silently taken from one of the two."""
    with pytest.raises(SystemExit) as exited:
        main(["compute", "--group", "bc", *label])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "--pair" in err and "--multi" in err


@pytest.mark.parametrize("group", ["bc", "d"])
@pytest.mark.parametrize("pair", ["1", "1|1|1"])
def test_compute_refuses_a_label_that_is_not_a_pair(capsys, group, pair):
    """Types B/C and D take an ordered pair: one or three components are a
    usage error naming that rule, not an unpacking error or a complaint
    about d."""
    code, out, err = run(capsys, "compute", "--group", group, "--pair", pair)
    assert (code, out) == (2, "")
    assert "ordered pair" in err and "unpack" not in err and "d = " not in err


def test_compute_malformed_pair(capsys):
    code, _, err = run(capsys, "compute", "--group", "bc", "--pair", "2,3")
    assert code == 2
    assert err.startswith("error:")


def test_compute_invalid_route(capsys):
    code, _, err = run(
        capsys, "compute", "--group", "bc", "--pair", "1|1", "--route", "nope"
    )
    assert code == 2


def test_enumerate_sdt_census(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "sdt", "--shape", "2,2,2", "--with-maj"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count: 3"
    majs = sorted(int(line.rsplit("maj=", 1)[1]) for line in lines[:-1])
    assert majs == [1, 2, 3]


def test_enumerate_empty(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "sdt", "--shape", "2,1")
    assert code == 0
    assert out.strip() == "count: 0"


def test_enumerate_syt(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "syt", "--shape", "3", "--with-maj")
    assert code == 0
    assert out.strip().splitlines() == ["[[1,2,3]]  maj=0", "count: 1"]
    code, out, _ = run(capsys, "enumerate", "--kind", "tuple", "--shape", "1|1", "--with-maj")
    assert code == 0
    assert out == "[[2]] ; [[1]]  maj=0\n[[1]] ; [[2]]  maj=1\ncount: 2\n"


def test_map_known_values(capsys):
    code, out, _ = run(capsys, "map", "--pair", "1,1|1")
    assert code == 0
    assert out == "rho1: 2,2,2\nrho2: 3,2,2\n"
    code, out, _ = run(capsys, "map", "--pair", "1|1,1")
    assert "rho1: 2,2,1,1" in out
    code, out, _ = run(capsys, "map", "--pair", "|")
    assert out == "rho1: -\nrho2: 1\n"


@pytest.mark.parametrize("pair", ["1", "1|1|1", ""])
def test_map_refuses_a_label_that_is_not_a_pair(capsys, pair):
    """`map --pair` parses a multipartition, as `compute` does, and the
    Lusztig map refuses one that is not an ordered pair: a usage error."""
    code, out, err = run(capsys, "map", "--pair", pair)
    assert code == 2 and out == ""
    assert err == "error: Lusztig map needs an ordered pair of partitions\n"


def test_explain_flip_example_exact(capsys):
    """A known worked flip example appears in some trace: locate the
    domino tableau whose intermediate pair is the example input, then check
    the printed final pair."""
    from fakedegrees.bijections import pi_c
    from fakedegrees.dominoes import enumerate_sdt
    from fakedegrees.shapes import lusztig_rho1, multipartitions_of

    target = (((4,), (6,)), ((1, 3), (2, 5)))
    shape = None
    index = None
    for pair_shape in multipartitions_of(6, 2):
        s = lusztig_rho1(pair_shape)
        for k, t in enumerate(enumerate_sdt(s)):
            if pi_c(t) == target:
                shape, index = s, k
    assert shape is not None
    code, out, _ = run(
        capsys, "explain", "--shape", ",".join(map(str, shape)), "--index", str(index)
    )
    assert code == 0
    assert "final pair: [[3],[4]] ; [[1,5],[2,6]]" in out
    assert "maj preserved: true" in out


# Full `explain` output: an even tableau with three flips, an odd tableau
# with two, and the smallest tableau, which needs none.
EXPLAIN_PINNED = {
    "5,5": (
        "standard domino tableau #0 of shape 5,5:\n"
        "1 2 3 4 5\n"
        "1 2 3 4 5\n"
        "map: even (size 2n)\n"
        "  label 1: rule piC-Voe -> tableau 2, cell (1, 1)\n"
        "  label 2: rule piC-Vee -> tableau 1, cell (1, 1)\n"
        "  label 3: rule piC-Voe -> tableau 2, cell (1, 2)\n"
        "  label 4: rule piC-Vee -> tableau 1, cell (1, 2)\n"
        "  label 5: rule piC-Voe -> tableau 2, cell (1, 3)\n"
        "intermediate pair: [[2,4]] ; [[1,3,5]]\n"
        "pair descent major index: 0\n"
        "flips: (2,3), (4,5), (3,4)\n"
        "final pair: [[4,5]] ; [[1,2,3]]\n"
        "maj(domino): 0\n"
        "maj(tuple): 0\n"
        "maj preserved: true\n"
    ),
    "6,4,1": (
        "standard domino tableau #0 of shape 6,4,1:\n"
        "0 2 3 4 5 5\n"
        "1 2 3 4\n"
        "1\n"
        "map: odd (size 2n+1)\n"
        "  label 1: rule piB-Voo -> tableau 2, cell (1, 1)\n"
        "  label 2: rule piB-Vee -> tableau 2, cell (1, 2)\n"
        "  label 3: rule piB-Voe -> tableau 1, cell (1, 1)\n"
        "  label 4: rule piB-Vee -> tableau 2, cell (1, 3)\n"
        "  label 5: rule piB-Hoe -> tableau 2, cell (1, 4)\n"
        "intermediate pair: [[3]] ; [[1,2,4,5]]\n"
        "pair descent major index: 0\n"
        "flips: (3,4), (4,5)\n"
        "final pair: [[5]] ; [[1,2,3,4]]\n"
        "maj(domino): 0\n"
        "maj(tuple): 0\n"
        "maj preserved: true\n"
    ),
    "2": (
        "standard domino tableau #0 of shape 2:\n"
        "1 1\n"
        "map: even (size 2n)\n"
        "  label 1: rule piC-Hoe -> tableau 1, cell (1, 1)\n"
        "intermediate pair: [[1]] ; []\n"
        "pair descent major index: 0\n"
        "flips: none\n"
        "final pair: [[1]] ; []\n"
        "maj(domino): 0\n"
        "maj(tuple): 0\n"
        "maj preserved: true\n"
    ),
}


@pytest.mark.parametrize("shape", sorted(EXPLAIN_PINNED))
def test_explain_pinned_output(capsys, shape):
    code, out, _ = run(capsys, "explain", "--shape", shape, "--index", "0")
    assert code == 0
    assert out == EXPLAIN_PINNED[shape]


def test_explain_zero_swaps(capsys):
    code, out, _ = run(capsys, "explain", "--shape", "2", "--index", "0")
    assert code == 0
    assert "flips: none" in out
    assert "maj preserved: true" in out


def test_explain_out_of_range(capsys):
    code, _, err = run(capsys, "explain", "--shape", "2,2,2", "--index", "99")
    assert code == 2
    assert err == "error: index 99 out of range (0..2)\n"


def test_explain_reads_one_tableau_of_a_large_shape(capsys):
    """The shape 8,8,6,6 has 672,672 domino tableaux; explain maps the one
    asked for, and checks the index against their count."""
    code, out, _ = run(capsys, "explain", "--shape", "8,8,6,6", "--index", "0")
    assert code == 0
    assert out.startswith("standard domino tableau #0 of shape 8,8,6,6:\n")
    assert out.endswith("maj preserved: true\n")
    code, _, err = run(capsys, "explain", "--shape", "8,8,6,6", "--index", "672672")
    assert code == 2
    assert err == "error: index 672672 out of range (0..672671)\n"


def test_explain_untileable(capsys):
    code, _, err = run(capsys, "explain", "--shape", "2,1", "--index", "0")
    assert code == 2
    assert err == "error: shape '2,1' supports no standard domino tableaux\n"


def test_verify_thm2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "thm2", "--max-n", "3")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["agree"] for r in records)
    assert "0 failures" in err


def test_verify_all_tiny(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "1")
    assert code == 0


def test_verify_poincare(capsys):
    code, _, err = run(capsys, "verify", "--suite", "poincare", "--max-n", "4")
    assert code == 0
    assert "0 failures" in err


@pytest.mark.parametrize(
    "argv", [("--max-n", "-1"), ("--suite", "thm4", "--max-n", "1")]
)
def test_verify_vacuous_sweep_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_invalid_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_verify_out_file(tmp_path, capsys):
    out_file = tmp_path / "report.jsonl"
    code, _, _ = run(
        capsys, "verify", "--suite", "thm1", "--max-n", "2", "--out", str(out_file)
    )
    assert code == 0
    records = [json.loads(line) for line in out_file.read_text().strip().splitlines()]
    assert records and all(r["agree"] for r in records)
    assert set(records[0]) == {
        "group", "label", "routes", "agree", "exponents", "palindromic",
    }



def test_verify_vacuous_sweep_leaves_out_untouched(tmp_path, capsys):
    """A sweep with no checks exits 2 without emptying an existing --out."""
    out_file = tmp_path / "report.jsonl"
    out_file.write_text("keep\n")
    code, out, err = run(
        capsys, "verify", "--suite", "thm4", "--max-n", "1", "--out", str(out_file)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: suite thm4 has no checks")
    assert out_file.read_text() == "keep\n"


def test_verify_vacuous_sweep_creates_no_out(tmp_path, capsys):
    """A sweep with no checks exits 2 without leaving a new, empty --out."""
    out_file = tmp_path / "new.jsonl"
    code, out, err = run(
        capsys, "verify", "--suite", "thm4", "--max-n", "1", "--out", str(out_file)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: suite thm4 has no checks")
    assert not out_file.exists()


def test_verify_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """An --out path that cannot be opened fails before the sweep, as a
    usage error, not as a traceback after it."""
    def no_sweep(*_args):
        raise AssertionError("the sweep ran before --out was opened")

    monkeypatch.setattr(cli, "run_suite", no_sweep)
    out_file = tmp_path / "missing-dir" / "report.jsonl"
    code, out, err = run(capsys, "verify", "--suite", "thm1", "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out")
    assert not out_file.exists()


class CountingStdout:
    """A stdout that keeps each text it is asked to write, one per call."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--kind", "syt", "--shape", "4,3,2,1", "--with-maj"),
     ("verify", "--suite", "thm1", "--max-n", "5")],
    ids=["enumerate", "verify"],
)
def test_stdout_takes_256_lines_to_a_write(monkeypatch, argv):
    """Where stdout is unbuffered (PYTHONUNBUFFERED), every write is a
    system call, so lines go out 256 to a write, not one or two a line."""
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(list(argv)) == 0
    lines = "".join(stdout.writes).count("\n")
    assert lines > 256
    assert len(stdout.writes) <= -(-lines // 256)


class Crash(Exception):
    """Raised by a route that breaks mid-sweep."""


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_a_sweep_that_dies_keeps_its_finished_records(tmp_path, capsys, monkeypatch, to_file):
    """A wreath route that breaks from rank 2 on ends the sweep with its
    exception, after the records of ranks 0 and 1 are written."""
    formula = fakedeg.ROUTES["wreath"]["formula"]

    def formula_to_rank_1(rep):
        if rep.n >= 2:
            raise Crash(rep)
        return formula(rep)

    monkeypatch.setitem(fakedeg.ROUTES["wreath"], "formula", formula_to_rank_1)
    out_file = tmp_path / "report.jsonl"
    argv = ["verify", "--suite", "thm1", "--max-n", "6"]
    with pytest.raises(Crash):
        main(argv + ["--out", str(out_file)] if to_file else argv)
    report = out_file.read_text() if to_file else capsys.readouterr().out
    records = [json.loads(line) for line in report.splitlines()]
    assert [(r["group"], r["label"], r["agree"]) for r in records] == [
        ("wreath(1,0)", "", True), ("wreath(1,1)", "1", True),
    ]

def test_poincare_cli(capsys):
    code, out, _ = run(capsys, "poincare", "--group", "d", "--n", "2")
    assert code == 0
    assert out.strip() == "1 + 2*q + q^2"
    code, out, _ = run(capsys, "poincare", "--group", "bc", "--n", "1")
    assert out.strip() == "1 + q"


def test_determinism(capsys):
    a = run(capsys, "verify", "--suite", "thm2", "--max-n", "3")
    b = run(capsys, "verify", "--suite", "thm2", "--max-n", "3")
    assert a == b
