"""Fuzz the whole CLI surface: every input runs, or fails in one line.

The strategy is read off ``fields(ExperimentConfig)``: a key's parser says
what to draw, its rule where the boundary lies and its modes whether it
costs anything, so a new key is fuzzed with no edit here.  A float is a
special value of either sign, the rule's boundary, or any ``floats()``
draw.  Caps on N, T/h, n_cells, T/dt and segments bound the run time only:
a capped count is drawn below its cap, and a horizon over too many steps
is redrawn as a whole number of them, so no float value is left out.

Each invocation must return 0, 1 or 2 and raise nothing, emit no
RuntimeWarning, and print exactly one ``config error:`` line on exit 1 and
one ``error:`` line on exit 2.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings
from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wellescape.cli import main
from wellescape.config import (
    MODES,
    ExperimentConfig,
    _parse_int,
    _parse_int_list,
    _parse_interval,
    _parse_list,
    parse_scalar,
)

_SPECIAL = (0.0, -0.0, 5e-324, 1e-300, 1e-8, 1.0, math.pi, 1e8, 1e150, 1e300)
# the largest count each key may draw, and the most steps per horizon
_COUNT_CAPS = {"N": 4096, "n_cells": 512, "segments": 64, "sweep_n": 4096}
_STEP_CAPS = {"h": 100, "dt": 50}
_FIELDS = fields(ExperimentConfig)
# the two keys some modes need and no default gives, overridden like any other
_BASE = "sampling = flatten\ny = 0.5\n"


# the boundary of the one float rule, "positive", is 0: already special
_FLOATS = st.sampled_from(_SPECIAL) | st.floats()


def _ints(name, rule):
    least = rule if isinstance(rule, int) else 0
    return st.integers(least - 1, _COUNT_CAPS.get(name, 2**64))


def _token(f):
    """The override text of key ``f``, from its parser and rule."""
    parse, rule, name = f.metadata["parse"], f.metadata["rule"], f.name
    if isinstance(rule, tuple):
        return st.sampled_from(rule)
    if parse is parse_scalar:
        return _FLOATS.map(repr)
    if parse is _parse_int:
        return _ints(name, rule).map(str)
    if parse is _parse_interval:
        return st.tuples(_FLOATS, _FLOATS).map(
            lambda p: f"({p[0]!r},{p[1]!r})")
    if parse is _parse_list:
        return st.lists(_FLOATS, max_size=3).map(
            lambda v: ",".join(map(repr, v)))
    if parse is _parse_int_list:
        return st.lists(_ints(name, rule), max_size=3).map(
            lambda v: ",".join(map(str, v)))
    # a free-form path: kept below the working directory
    return st.text("ab -_/", max_size=8).map(lambda s: "./" + s)


def _value(name, tokens):
    """The float a token gives ``name``, or its default, or None if bad."""
    if name not in tokens:
        return getattr(ExperimentConfig, name)
    try:
        return parse_scalar(tokens[name])
    except ValueError:
        return None


@st.composite
def invocations(draw):
    """``[command, --key, value, ...]``: of the keys the mode reads, every
    count whose default is over its cap and up to three others."""
    mode = draw(st.sampled_from(MODES), label="mode")
    read = [f for f in _FIELDS if f.name != "mode"
            and mode in (f.metadata["modes"] or MODES)]
    always = [f for f in read if f.name in _COUNT_CAPS and f.default is not None]
    others = [f for f in read if f not in always]
    chosen = draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    tokens = {"mode": mode}
    tokens.update((f.name, draw(_token(f), label=f.name)) for f in always + chosen)
    for f in read:
        cap = _STEP_CAPS.get(f.name)
        if cap is None:
            continue
        T, step = _value("T", tokens), _value(f.name, tokens)
        if T is not None and step and T / step > cap:
            # the cap itself is a multiple of every Riemann stride that divides it
            steps = st.just(cap) | st.integers(1, cap)
            tokens["T"] = repr(step * draw(steps, label="steps"))
    argv = [draw(st.sampled_from(("run", "validate")), label="command")]
    for name, text in tokens.items():
        argv += [f"--{name}", text]
    return argv


@contextlib.contextmanager
def _inside(path):
    here = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(here)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=invocations())
def test_every_input_runs_or_fails_in_one_line(argv):
    command, *overrides = argv
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        with open("fuzz.cfg", "w") as fh:
            fh.write(_BASE)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "fuzz.cfg", *overrides])
    runtime = [str(w.message) for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert not runtime, runtime
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
