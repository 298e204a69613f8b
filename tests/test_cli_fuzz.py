"""Fuzzed command lines: any input ends in exit 0, 1 or 2 and at most one error line.

File-reading commands get arbitrary bytes, or a fixture with a few bytes
changed, under flags drawn from small fixed sets.  Flag-only commands get a
universe of at most four alternatives: ``enumerate-types --n 8`` already
builds hundreds of thousands of types.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framechoice.cli import run

DATA_DIR = Path(__file__).parent / "data"

SEEDS = [path.read_bytes() for path in sorted(DATA_DIR.glob("*.csv"))] + [
    b"frame,choice\n,a\na,a\nb,b\na|b,a\n",
    b'{"universe": ["a", "b", "c"], "u": {"a": "2/3", "b": "1/6", "c": "1/6"}, '
    b'"v": {"a": "1", "b": "0", "c": "1/2"}}',
]

FILE_COMMANDS = ["validate", "bm", "hasse", "test-fum", "repr-fum", "test-frum", "recover",
                 "feasible", "test-fluce", "fit-fluce", "embed-check", "plot"]

COMMON_FLAGS = st.tuples(
    st.sampled_from([[], ["--numeric", "rational"], ["--numeric", "float64"]]),
    st.sampled_from([[], [], ["--epsilon=0.01"], ["--epsilon=0"], ["--epsilon=-1"],
                     ["--epsilon=nan"], ["--epsilon=inf"], ["--epsilon=1e308"]]),
).map(lambda t: [*t[0], *t[1]])

# the flags that only some file commands take
OWN_FLAGS = {
    "recover": st.sampled_from([[], ["--method", "constructive"]]),
    "hasse": st.sampled_from([[], ["--dot"]]),
    "plot": st.tuples(
        st.sampled_from([[], ["--targets", "a|b|c,"], ["--targets", "a|b,x"], ["--targets", ""]]),
        st.sampled_from([[], ["--project", "a,b,c"], ["--project", "a,b"], ["--project", "a,a,b"]]),
    ).map(lambda t: [*t[0], *t[1]]),
}

FILE_COMMAND = st.sampled_from(FILE_COMMANDS).flatmap(
    lambda name: OWN_FLAGS.get(name, st.just([])).map(lambda flags: [name, *flags])
)

N = st.sampled_from(["-1", "0", "1", "2", "3", "4"])

FLAG_COMMANDS = st.one_of(
    st.tuples(st.just(["enumerate-types", "--n"]), N).map(lambda t: [*t[0], t[1]]),
    st.tuples(
        st.sampled_from(["mu", "fluce"]),
        N,
        st.sampled_from([[], ["--emit", "data"], ["--emit", "data", "--format", "csv"]]),
        st.sampled_from([[], ["--sparsity", "0"], ["--sparsity", "0.3"], ["--sparsity", "-1"]]),
        st.integers(0, 5),
    ).map(lambda t: ["simulate", "--kind", t[0], "--n", t[1], *t[2], *t[3], "--seed", str(t[4])]),
    st.tuples(
        st.sampled_from(["constant_boost", "constant_base", "proportional"]),
        st.sampled_from([[], ["--labels", "a,b,c"], ["--labels", "a,a"], ["--labels", ""]]),
        st.sampled_from([[], ["--u", "1,2,3"], ["--u", "1,x"], ["--u=-1,0,1"]]),
        st.sampled_from([[], ["--v", "0,1,2"], ["--boost", "0.5"], ["--base", "1"],
                         ["--scale", "2"], ["--scale", "1/0"]]),
    ).map(lambda t: ["preset", "--kind", t[0], *t[1], *t[2], *t[3]]),
)


# a replacement for up to four bytes, mostly drawn from the characters the formats use
FORMAT_TEXT = st.text("0123456789./-e,|#abcd \n", max_size=4).map(str.encode)
EDITS = st.one_of(FORMAT_TEXT, FORMAT_TEXT, st.binary(max_size=4))


@st.composite
def file_bytes(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=300))
    content = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(content)))
        cut = draw(st.integers(0, 4))
        content = content[:at] + draw(EDITS) + content[at + cut:]
    return content


def check_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    message = err.getvalue()
    assert message == "" or (message.startswith("error: ") and message.count("\n") == 1), message
    assert (message != "") == (code == 1), (argv, message)


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(command=FILE_COMMAND, content=file_bytes(), common=COMMON_FLAGS)
def test_file_commands(command, content, common):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "input"
        path.write_bytes(content)
        check_run([*command, "--in", str(path), *common])


@FUZZ
@given(argv=FLAG_COMMANDS, common=COMMON_FLAGS)
def test_flag_commands(argv, common):
    check_run([*argv, *common])
