"""Every subcommand's numeric flags fuzzed with hostile values: each call
ends with exit 0, 1 or 2, never a traceback, and a successful call prints
no nan."""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentcf import cli, synthetic

HOSTILE = ("0", "-1", "nan", "inf", "1e309", str(10**30), "abc")
TINY_MODEL = ["--quiet", "--set", "k=2", "--set", "d=2", "--set", "l=2", "--set", "intent_hidden=4",
              "--set", "item_hidden=4", "--set", "pref_hidden=4", "--set", "batch_size=16",
              "--set", "pretrain_epochs=1", "--set", "unified_epochs=1"]


def run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in this process: its exit code (argparse's included), stdout
    and stderr. An exception other than SystemExit propagates, as it would
    end a real process in a traceback. ``--threads`` writes BLAS variables
    into the environment, so the environment is restored afterwards."""
    out, err = io.StringIO(), io.StringIO()
    env = dict(os.environ)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.environ.clear()
        os.environ.update(env)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def tiny():
    with tempfile.TemporaryDirectory() as root:
        ratings, genres = synthetic.planted_channel_data(n_users=30, n_items=20, n_channels=2, seed=5).write(
            os.path.join(root, "raw"))
        prep = os.path.join(root, "prep")
        assert run(["prepare", "--ratings", ratings, "--genres", genres, "--out", prep, "--seed", "3"])[0] == 0
        assert run(["train", "--data", prep, "--out", os.path.join(root, "run"), *TINY_MODEL])[0] == 0
        yield {"root": root, "ratings": ratings, "genres": genres, "prep": prep,
               "ckpt": os.path.join(root, "run", "best.ckpt")}


def commands(w: dict) -> dict:
    """Each command's fixed arguments and its numeric flags, a flag mapped to
    the templates its drawn value fills at {}."""
    serve = ["--checkpoint", w["ckpt"], "--data", w["prep"]]
    one = ("{}",)
    return {
        "prepare": (["prepare", "--ratings", w["ratings"], "--genres", w["genres"],
                     "--out", os.path.join(w["root"], "prep2")],
                    {"--min-interactions": one, "--rating-threshold": one, "--seed": one, "--threads": one,
                     "--fractions": ("{},0.1,0.3", "0.6,{},0.3", "0.6,0.1,{}")}),
        "train": (["train", "--data", w["prep"], "--out", os.path.join(w["root"], "run2"), *TINY_MODEL],
                  {"--seed": one, "--threads": one}),
        "eval": (["eval", *serve], {"--cutoffs": ("{}", "5,{}"), "--threads": one}),
        "channels": (["channels", *serve], {"--top": one, "--threads": one}),
        "channels --user": (["channels", *serve, "--user", "u1"], {"--top": one, "--user-channels": one}),
        "recommend": (["recommend", *serve, "--user", "u1"],
                      {"--n": one, "--channel": one, "--threads": one, "--intent": ("0:{}", "{}:1", "0:{},1:1")}),
        "recommend --similar-to": (["recommend", *serve, "--similar-to", "i1"], {"--n": one}),
        "cooccur": (["cooccur", *serve], {"--top": one, "--shuffles": one, "--seed": one, "--threads": one}),
        "inspect": (["inspect", w["ckpt"]], {"--threads": one}),
    }


@st.composite
def flag_values(draw, flags: dict) -> list[str]:
    """Some of the flags, each with a hostile value in one of its templates."""
    argv = []
    for flag, templates in flags.items():
        value = draw(st.none() | st.sampled_from(HOSTILE))
        if value is None:
            continue
        argv += [flag, draw(st.sampled_from(templates)).format(value)]
    return argv


@pytest.mark.parametrize("name", ["prepare", "train", "eval", "channels", "channels --user", "recommend",
                                  "recommend --similar-to", "cooccur", "inspect"])
def test_hostile_numeric_flags_end_in_an_exit_code(tiny, name):
    base, flags = commands(tiny)[name]
    examples = 12 if name == "train" else 40

    @given(flag_values(flags))
    @settings(max_examples=examples, deadline=None, database=None)
    def check(argv):
        code, out, err = run([*base, *argv])
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, (argv, err)
        if code == 0:
            assert "nan" not in out.lower(), (argv, out)
        else:
            assert err.strip(), argv

    check()
