"""The project's own tooling keeps resolving what it names in the library.

README's command examples must parse with the CLI's parser, and the
benchmark's tracer must find every function it wraps; a flag or function
removed from the library would otherwise leave them stale unnoticed.
"""

import importlib.util
import shlex
import sys
from pathlib import Path

import pytest

from qcldpc import channel, cli, gldpc

ROOT = Path(__file__).resolve().parent.parent


def readme_commands():
    """Every `qcldpc ...` line of README's "Command line" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [
        line.strip() for line in section.splitlines() if line.strip().startswith("qcldpc ")
    ]


def test_readme_lists_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses_and_passes_input_checks(line):
    argv = shlex.split(line)[1:]
    args = cli._build_parser().parse_args(argv)
    cli._check_inputs(args)


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = load_tracer()
    originals = {
        name: getattr(sys.modules[f"qcldpc.{name.split('.')[0]}"], name.split(".")[1])
        for name in tracer.LAYERS
    }
    t = tracer.Tracer()
    t.install()
    try:
        for name, original in originals.items():
            module, func = name.split(".")
            assert getattr(sys.modules[f"qcldpc.{module}"], func) is not original, name
    finally:
        t.uninstall()
    for name, original in originals.items():
        module, func = name.split(".")
        assert getattr(sys.modules[f"qcldpc.{module}"], func) is original, name
    # The tracer's own test checks that these imported bindings are rebound.
    assert callable(channel.expand_binary)
    assert callable(gldpc.rank_scalar)
