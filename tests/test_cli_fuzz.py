"""Every argument list ends in exit 0, 1 or 2 with no traceback: `cli.main`
runs in process on random construct/verify/hilbert arguments."""

import contextlib
import io

import pytest

from saito_forge.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = st.sampled_from(["q", "fp:1009", "fp:32003"]) | st.sampled_from(
    ["fp:7", "fp:4", "fp:0", "fp:-5", "fp:", "fp:x", "gf", ""])
MALFORMED = ["", "+", "x^", "x**2", "x y", "1/0", "3/", "x^-1", "z", "w", "2*", "(x+y)", "x/2", "1e3",
             "²", "x^²", "x^٣"]


@st.composite
def form(draw, degree):
    """A form c*x^i*y^(k-i) +- ... of one degree k, often the degree the
    family asks for, or a malformed string."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(MALFORMED))
    k = draw(st.just(max(degree, 0)) | st.integers(0, 4))
    terms = draw(st.lists(st.tuples(st.sampled_from(["1", "2", "3", "1/2"]), st.integers(0, k)),
                          min_size=1, max_size=3))
    if draw(st.booleans()):  # x^k and y^k terms: neither x nor y divides the form
        terms += [("1", 0), ("2", k)]
    sep = draw(st.sampled_from([" + ", " - "]))
    return sep.join("*".join([c] + [f"x^{i}"] * (i > 0) + [f"y^{k - i}"] * (k > i)) for c, i in terms)


@st.composite
def argv(draw):
    d = draw(st.integers(5, 11) | st.integers(-1, 11))
    alpha = draw(st.integers(0, 2) | st.integers(-1, 4))
    args = [draw(st.sampled_from(["construct", "verify", "hilbert"])),
            "--d", str(d), "--alpha", str(alpha),
            "--beta", str(draw(st.integers(0, 2) | st.integers(-1, 4))),
            f"--field={draw(FIELDS)}"]
    if draw(st.booleans()):
        args += [f"--f1={draw(form(alpha))}", f"--f2={draw(form(d - d // 2 - alpha - 1))}"]
    return args


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(argv())
def test_cli_exits_0_1_or_2(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse rejects its input with exit 2
            code = exc.code
    assert code in (0, 1, 2), (args, err.getvalue())
