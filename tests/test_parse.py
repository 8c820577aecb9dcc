"""``cli._parse``, the reader of well-formed command lines, against argparse:
whenever it returns a namespace, ``build_parser().parse_args`` returns an
equal one."""

import importlib.util
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hypersine import cli
from hypersine.suites import SUITE_NAMES

ROOT = Path(__file__).parents[1]


def _load(relative):
    spec = importlib.util.spec_from_file_location(Path(relative).stem,
                                                  ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_diff = _load("tools/golden_diff.py")
workloads = _load("perfbench/workloads.py")


def _argparse(argv):
    return vars(cli.build_parser().parse_args(argv))


FLAGS = sorted({name for _, _, arguments in cli.COMMANDS.values()
                for name, _ in arguments if name[0] == "-"})
# prefixes argparse expands (--h only on sine-space, where it is --help),
# an ambiguous one, and the tokens that end or ask for help
PREFIXES = ["--n", "--lam", "--h", "--he", "--s", "--rec", "--", "-h",
            "--help"]
VALUES = ["3", " 3", "-0.5", "-1", "nan", "inf", "0.5,0.5", "1+2j", "1,inf",
          "", "json", "csv", "bogus", "--", "spec.json", "all",
          *SUITE_NAMES, *cli.TABULATE_FAMILIES]


def _accepts(keywords, value):
    """Whether an argument takes ``value``: its type converts it, to one of
    its choices if it has any."""
    try:
        converted = keywords.get("type", str)(value)
    except Exception:
        return False
    return converted in keywords.get("choices", [converted])


def _piece(name, keywords):
    """Tokens for one argument: a positional value, or the flag with its
    value joined by "=", as the next token, or missing.  Half of the values
    are drawn from those the argument takes."""
    good = [value for value in VALUES if _accepts(keywords, value)]
    values = st.sampled_from(good) | st.sampled_from(VALUES)
    if name[0] != "-":
        return values.map(lambda value: [value])
    joined = values.map(lambda value: [f"{name}={value}"])
    separate = values.map(lambda value: [name, value])
    return st.one_of(joined, separate, joined, separate, st.just([name]))


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from([*cli.COMMANDS]) | st.sampled_from(
        [*cli.COMMANDS, "verif", "", "-h", "--"]))
    arguments = dict(cli.COMMANDS.get(command, (None, None, ()))[2])
    # usually each positional and required option, then flags, two in three
    # of them its own
    usual = [name for name, keywords in arguments.items()
             if name[0] != "-" or keywords.get("required")]
    names = [name for name in usual if draw(st.integers(0, 9))]
    own = st.sampled_from([*arguments] or FLAGS)
    names += draw(st.lists(own | own | st.sampled_from(FLAGS + PREFIXES),
                           max_size=5))
    pieces = [draw(_piece(name, arguments.get(name, {}))) for name in names]
    return [command,
            *itertools.chain.from_iterable(draw(st.permutations(pieces)))]


@settings(max_examples=1000)
@given(_command_lines())
def test_parse_returns_what_argparse_returns(argv):
    fast = cli._parse(argv)
    if fast is not None:
        assert vars(fast) == _argparse(argv)


# a separate negative value or a prefix of an option: argparse reads these
ARGPARSE_PATH = [
    ("tabulate", "--family", "sturm", "--lambda", "-0.7", "--c", "-1.5"),
    ("verify", "polyone", "--n", "12", "--lambda", "-0.5"),
    ("verify", "sturm", "--xmax", "5", "--h", "1e-2", "--lambda", "2",
     "--alpha", "-0.5"),
    ("tabulate", "--family", "chebyshev", "--lam", "0.5", "--n", "6")]
GOLDEN = [("verify", *config) for config in golden_diff.CONFIGS]
GOLDEN += golden_diff.TABLES


@pytest.mark.parametrize(
    "argv", [argv for argv in GOLDEN if argv not in ARGPARSE_PATH], ids=" ".join)
def test_golden_command_lines_take_the_fast_path(argv):
    fast = cli._parse(list(argv))
    assert fast is not None and vars(fast) == _argparse(list(argv))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_command_lines_take_the_fast_path(workload, tmp_path):
    argv = workloads.config_argv(workload, 1, 0, tmp_path)
    argv += ["--out", str(tmp_path / "report.json")]
    fast = cli._parse(argv)
    assert fast is not None and vars(fast) == _argparse(argv)


@pytest.mark.parametrize("argv", ARGPARSE_PATH, ids=" ".join)
def test_golden_prefixes_and_negative_values_go_to_argparse(argv):
    assert argv in GOLDEN
    assert cli._parse(list(argv)) is None
    assert _argparse(list(argv))["command"] == argv[0]


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["-h"], ["--help"], ["verify"], ["list", "x"],
    ["verify", "compact", "coset"],    # a wrong positional count
    ["tabulate"],                      # no --family
    ["verify", "compact", "--bogus", "1"],
    ["verify", "compact", "--n", "3"],
    ["verify", "compact", "--s=1"],    # ambiguous: --seed or --samples
    ["sine-space", "spec.json", "--h", "9"],
    ["verify", "compact", "-h"],
    ["verify", "compact", "--help"],
    ["verify", "--", "compact"],
    ["verify", "compact", "--out=--"],   # argparse drops the "--"
    ["verify", "compact", "--lambda", "-0.5"],
    ["verify", "compact", "--seed"],
    ["verify", "compact", "--seed", "x"],
    ["verify", "compact", "--lambda=nan"],
    ["verify", "compact", "--format", "xml"],
    ["sine-space", "spec.json", "--m", "1,nan"]])
def test_parse_leaves_help_prefixes_and_errors_to_argparse(argv):
    assert cli._parse(argv) is None


def test_parse_applies_defaults_dest_and_append():
    fast = cli._parse(["verify", "--lambda=-0.5", "coset", "--seed", "3",
                       "--lambda", "1,2", "--theta= 0.5"])
    assert vars(fast) == _argparse(["verify", "--lambda=-0.5", "coset",
                                    "--seed", "3", "--lambda", "1,2",
                                    "--theta= 0.5"])
    assert fast.lambdas == [-0.5, 1 + 2j] and fast.thetas == [0.5]
    assert (fast.suite, fast.seed, fast.n_max) == ("coset", 3, None)
