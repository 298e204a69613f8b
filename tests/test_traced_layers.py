"""The layer boundaries that the benchmark's tracer wraps stay where it looks.

``perfbench/spans.py`` times a layer by replacing, for one process, the name
that a calling module bound (``cli.parse_stochastic``, ``frum.compute_bm``, ...)
or a method of a program class.  A refactor that stops calling a layer through
that name would not fail, but it would silently zero that layer's metric.
These tests fail instead.
"""

import pytest

from framechoice import cli, core, detfum, frum, plotdata, polys, rational_lp
from framechoice.cli import run

# module attribute -> the function it must still be
BOUND = [
    (cli, "parse_stochastic", core.parse_stochastic),
    (cli, "compute_bm", polys.compute_bm),
    (frum, "compute_bm", polys.compute_bm),
    (cli, "test_frum", frum.test_frum),
    (cli, "recover_branch_independent", frum.recover_branch_independent),
    (cli, "recover_constructive", frum.recover_constructive),
    (cli, "feasible_completion", frum.feasible_completion),
    (frum, "solve_rational_lp", rational_lp.solve_rational_lp),
    (plotdata, "solve_rational_lp", rational_lp.solve_rational_lp),
    (frum, "enumerate_types", detfum.enumerate_types),
    (plotdata, "enumerate_types", detfum.enumerate_types),
    (cli, "plot_simplex", plotdata.plot_simplex),
    (cli, "dumps_json", core.dumps_json),
]

# names the tracer wraps, each of which the commands below must call through
CALLED = [(owner, attr) for owner, attr, _ in BOUND] + [
    (frum, "interim_violations"),
    (core.StochasticChoiceData, "__post_init__"),
    (core.StochasticChoiceData, "to_csv"),
    (polys.BMTable, "to_json_dict"),
    (frum.FrumVerdict, "to_json_dict"),
]


@pytest.mark.parametrize("owner,attr,target", BOUND, ids=[f"{o.__name__}.{a}" for o, a, _ in BOUND])
def test_names_stay_bound(owner, attr, target):
    assert getattr(owner, attr) is target


def test_library_entry_points_exist():
    # the benchmark calls these directly, so only their names are pinned
    assert callable(frum.check_prop2)
    assert callable(core.StochasticChoiceData.to_csv)


def test_commands_call_through_wrapped_names(tmp_path, monkeypatch, capsys):
    calls = {}

    def counting(owner, attr):
        original = getattr(owner, attr)
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in CALLED:
        counting(owner, attr)
    data, small = tmp_path / "mixture.csv", tmp_path / "small.csv"
    simulate = ["simulate", "--kind", "mu", "--n", "3", "--seed", "1", "--emit", "data",
                "--format", "csv", "--out", str(data)]
    assert run(simulate) == 0, capsys.readouterr().err
    # frames of size <= 2 only: on this partial input, which has no negative
    # interval sum, feasible goes on to the LP over every type
    small.write_text("".join(
        line for line in data.read_text().splitlines(keepends=True)
        if line.startswith("#") or line.split(",")[0].count("|") <= 1
    ))
    data, small = str(data), str(small)
    argv_list = [
        ["test-frum", "--in", data],
        ["bm", "--in", data],
        ["recover", "--in", data, "--method", "branch"],
        ["recover", "--in", data, "--method", "constructive"],
        ["feasible", "--in", data],
        ["feasible", "--in", small],
        ["plot", "--in", data],
    ]
    for argv in argv_list:
        assert run(argv) == 0, (argv, capsys.readouterr().err)
    assert {key: n for key, n in calls.items() if n == 0} == {}
