"""The project's own tooling keeps resolving what it names in the library.

README's command examples must parse with the CLI's parser and run to
exit code 0 with a RuntimeWarning raised as an error, and the
benchmark's tracer must find every function it wraps; a flag or function
removed from the library would otherwise leave them stale unnoticed. An
import that nothing reads is flagged too, since deleting a helper tends to
leave its import behind, and so is a ``global`` statement in the library,
which would carry state from one call to the next, and so is a call to
numpy's bit packing outside ``binmat``, the one reader of ints as 0/1
arrays, and so is a call to ``minor_det`` outside ``polymat``: a caller
that takes many minors shares one ``polymat.Minors``, and so is a
``matmul_mod`` that builds more than two ``BinaryPoly`` per entry of
its product (it sums ``gf2poly.clmul`` products on ints). The distance
search's replay of numpy's draws must reach the bit generator through its
public API only. Every ``tools/`` script that README
or CI names must exist, ``tools/code_lines.py`` must count a known module
right, and ``tools/passes.py`` must keep splitting each benchmark
workload's passes.
"""

import ast
import functools
import importlib.util
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qcldpc import channel, cli, gldpc, polymat
from qcldpc.gf2poly import BinaryPoly

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    # Each example runs as written, in a fresh directory (export writes its
    # --out file there), and a numpy RuntimeWarning fails it.
    monkeypatch.chdir(tmp_path)
    assert cli.run(shlex.split(line)[1:]) == 0, capsys.readouterr().err


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


def unused_imports(path):
    """(line, name) of each import ``path`` binds and never reads.

    A name counts as read wherever it appears as a name in the module, or
    as a string in ``__all__``. An import whose line (the statement's
    first, or the name's own) carries ``# noqa: F401`` is kept on purpose.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = {node.lineno, getattr(alias, "lineno", node.lineno)}
            if name not in read and not any("# noqa: F401" in lines[n - 1] for n in marked):
                unused.append((node.lineno, name))
    return unused


def test_no_unused_imports():
    paths = [p for folder in ("src", "tests", "tools") for p in (ROOT / folder).rglob("*.py")]
    assert ROOT / "src" / "qcldpc" / "analysis.py" in paths
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p) for p in paths}
    assert {path: names for path, names in found.items() if names} == {}


def test_unused_import_guard_flags_and_honours_noqa(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "import numpy as np\n"
        "__all__ = ['loads']\n"
        "print(np.zeros)\n",
        encoding="utf-8",
    )
    assert unused_imports(probe) == [(2, "os"), (4, "dumps")]


def global_statements(path):
    """(line, names) of each ``global`` statement in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        (node.lineno, node.names) for node in ast.walk(tree) if isinstance(node, ast.Global)
    )


def test_library_has_no_global_statements():
    # Module state written from a function outlives the call that wrote it;
    # the library keeps what it reuses in functools caches instead.
    paths = sorted((ROOT / "src" / "qcldpc").rglob("*.py"))
    assert ROOT / "src" / "qcldpc" / "channel.py" in paths
    found = {p.relative_to(ROOT).as_posix(): global_statements(p) for p in paths}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_global_guard_flags_every_global_statement(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "cache = None\n"
        "counter = 0\n"
        "def store(x):\n"
        "    global cache, counter\n"
        "    cache = x\n"
        "class Holder:\n"
        "    def bump(self):\n"
        "        def inner():\n"
        "            global counter\n"
        "            counter += 1\n"
        "        inner()\n"
        "def local():\n"
        "    cache = 1\n"
        "    return cache\n",
        encoding="utf-8",
    )
    assert global_statements(probe) == [(4, ["cache", "counter"]), (9, ["counter"])]


def bit_packing_calls(path):
    """(line, name) of each call to ``packbits`` or ``unpackbits`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("packbits", "unpackbits"):
                found.append((node.lineno, name))
    return sorted(found)


def test_bits_are_packed_only_in_binmat():
    # binmat.pack_bits and unpack_bits are the one int <-> 0/1 array pair;
    # numpy's bit packing anywhere else would be a second reader of it.
    paths = sorted((ROOT / "src" / "qcldpc").rglob("*.py"))
    binmat = ROOT / "src" / "qcldpc" / "binmat.py"
    assert binmat in paths and bit_packing_calls(binmat) != []
    found = {p.relative_to(ROOT).as_posix(): bit_packing_calls(p) for p in paths if p != binmat}
    assert {path: calls for path, calls in found.items() if calls} == {}


def test_bit_packing_guard_flags_every_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from numpy import unpackbits\n"
        "a = np.packbits([1, 0], bitorder='little')\n"
        "def f(raw):\n"
        "    return unpackbits(raw)\n"
        "packbits = 'a name, not a call'\n"
        "np.unpackbits\n",
        encoding="utf-8",
    )
    assert bit_packing_calls(probe) == [(3, "packbits"), (5, "unpackbits")]


def minor_det_calls(path):
    """Lines of each call to ``minor_det`` in ``path``, as a name or an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "minor_det" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        )
    )


def test_minor_det_is_called_only_in_polymat():
    # minor_det is a one-shot Minors; a library caller taking minor after
    # minor through it would expand their shared sub-minors again.
    paths = sorted((ROOT / "src" / "qcldpc").rglob("*.py"))
    polymat = ROOT / "src" / "qcldpc" / "polymat.py"
    assert polymat in paths
    found = {p.relative_to(ROOT).as_posix(): minor_det_calls(p) for p in paths if p != polymat}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_minor_det_guard_flags_every_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from qcldpc import polymat\n"
        "from qcldpc.polymat import minor_det\n"
        "d = minor_det(H)\n"
        "def f(H):\n"
        "    return polymat.minor_det(H, None, (1, 2))\n"
        "minor_det\n"
        "polymat.Minors(H)(None, (1,))\n",
        encoding="utf-8",
    )
    assert minor_det_calls(probe) == [3, 5]


def test_matmul_mod_builds_one_poly_per_entry(monkeypatch):
    # matmul_mod sums each entry's products on ints: one BinaryPoly for
    # the sum and at most one more for its reduction, however many terms.
    spec = gldpc.load_spec(ROOT / "src" / "qcldpc" / "data" / "hamming15.json")
    G = gldpc.construct_generator(spec).matrix
    Ht = polymat.transpose_entrywise(gldpc.assembled_parity(spec))
    built = []
    init = BinaryPoly.__init__

    def counting_init(self, bits=0):
        built.append(bits)
        init(self, bits)

    monkeypatch.setattr(BinaryPoly, "__init__", counting_init)
    product = polymat.matmul_mod(G, Ht)
    monkeypatch.undo()
    entries = product.nrows * product.ncols
    assert entries == G.nrows * Ht.ncols
    assert 0 < len(built) <= 2 * entries


def bit_generator_reach(path):
    """(attributes read off a bit generator, private numpy.random imports) in ``path``.

    A bit generator is ``<expr>.bit_generator``, a name assigned one, or
    a name ``bitgen``. A private import is a ``numpy.random`` module or
    name that starts with an underscore, imported or read as an attribute.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {"bitgen"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
            if node.value.attr == "bit_generator":
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    attrs, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if (isinstance(base, ast.Name) and base.id in names) or (
                isinstance(base, ast.Attribute) and base.attr == "bit_generator"
            ):
                attrs.add(node.attr)
            if isinstance(base, ast.Attribute) and base.attr == "random":
                if node.attr.startswith("_"):
                    private.append(node.attr)
        modules = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        private += [m for m in modules if m.startswith("numpy.random.") and "._" in m]
    return attrs, private


def test_analysis_reaches_the_bit_generator_through_its_public_api():
    # The search's replay reads numpy's raw words; a private module or
    # call would tie it to one numpy build.
    attrs, private = bit_generator_reach(ROOT / "src" / "qcldpc" / "analysis.py")
    assert attrs == {"random_raw", "state", "advance"}
    assert private == []


def test_bit_generator_guard_flags_private_reach(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from numpy.random import _pcg64, default_rng\n"
        "import numpy.random._common\n"
        "bits = np.random.default_rng().bit_generator\n"
        "bits.random_raw(bits.ctypes)\n"
        "bitgen.advance(1)\n"
        "rng.bit_generator.jumped()\n"
        "np.random._generator\n",
        encoding="utf-8",
    )
    attrs, private = bit_generator_reach(probe)
    assert attrs == {"random_raw", "ctypes", "advance", "jumped"}
    assert sorted(private) == ["_generator", "numpy.random._common", "numpy.random._pcg64"]


def named_tools():
    """Every ``tools/<name>.py`` that README.md or a CI workflow names."""
    texts = [ROOT / "README.md", *(ROOT / ".github" / "workflows").glob("*.yml")]
    return {
        name for path in texts
        for name in re.findall(r"\btools/[\w/]+\.py\b", path.read_text(encoding="utf-8"))
    }


def test_every_named_tool_exists():
    # A deleted script must not live on in the docs or in CI.
    names = named_tools()
    assert "tools/passes.py" in names
    assert sorted(name for name in names if not (ROOT / name).is_file()) == []


def load_code_lines():
    path = ROOT / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


KNOWN_MODULE = '''"""Module docstring,
two lines."""

# a comment
import os  # counted


class Holder:
    """Class docstring."""

    def get(self):
        """Function
        docstring."""
        text = """a string
        over two lines"""
        return (text,
                os.sep)

    async def run(self):
        'Docstring in single quotes.'
        pass
'''


def test_code_lines_counts_a_known_module(tmp_path, capsys):
    # import, class, def, the string's two lines, return's two lines,
    # async def and pass.
    tool = load_code_lines()
    assert tool.code_lines(KNOWN_MODULE) == 9
    probe = tmp_path / "probe.py"
    probe.write_text(KNOWN_MODULE, encoding="utf-8")
    tool.main([str(tmp_path), str(probe)])
    assert capsys.readouterr().out.splitlines() == [
        f"     9  {probe}", f"     9  {probe}", "    18  total"
    ]


DESIGN_SPECS = ["n79", "c1", "c2", "prelift90", "prelift68", "hamming15"]


@pytest.fixture(scope="module")
def passes_report():
    """The JSON line of one two-pass tools/passes.py run per workload.

    Each workload runs once, on first use. The split comes from the
    wrapped passes, and the faults and ``pass_s_median`` from the passes
    with nothing wrapped.
    """

    @functools.cache
    def report(workload):
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "passes.py"), "--workload", workload,
             "--passes", "2"],
            capture_output=True, text=True, check=True, timeout=300,
        )
        return json.loads(done.stdout.splitlines()[-1])

    return report


def test_design_jobs_times_every_bundled_spec(passes_report):
    # tools/passes.py reads run_pass's job order; a pass that timed
    # another number of jobs would make it exit with an error.
    report = passes_report("design")
    specs = DESIGN_SPECS
    assert report["failed_ops"] == 0
    assert list(report["median_s"]) == [*specs, "other"]
    for name in specs:
        assert all(t > 0 for t in report["median_s"][name].values())
        # The construct stages are parts of that construct job in each pass.
        stages = report["construct_stage_median_s"][name]
        assert list(stages) == ["dimension", "reduction", "synthesis", "verification"]
        assert all(t > 0 for t in stages.values())
        assert sum(stages.values()) < report["median_s"][name]["construct"]


def test_design_jobs_counts_echelon_adds_per_construct(passes_report):
    # Only c2 and prelift90 leave rows for the bit-level span: the other
    # specs' generators take the case-1 path and their ranks pivot on
    # units. A span step stops each row at its first dependent shift,
    # where adding all N shifts took 1,428 and 3,060 adds.
    adds = passes_report("design")["construct_echelon_adds"]
    assert list(adds) == DESIGN_SPECS
    assert all(isinstance(n, int) for n in adds.values())
    assert 0 < adds["c2"] <= 400 and 0 < adds["prelift90"] <= 650
    assert [adds[name] for name in ("n79", "c1", "prelift68", "hamming15")] == [0] * 4


def test_design_jobs_counts_poly_products_per_construct(passes_report):
    # Every construct job multiplies polynomials: its minors, the Schur
    # step and the syndrome check all do. Products by a zero entry or a
    # zero sub-minor are skipped; counting each term took 126, 164, 489,
    # 1,356, 1,130 and 567.
    products = passes_report("design")["construct_poly_products"]
    assert list(products) == DESIGN_SPECS
    assert all(isinstance(n, int) and n > 0 for n in products.values())
    most = {"n79": 97, "c1": 127, "c2": 423, "prelift90": 863, "prelift68": 629, "hamming15": 353}
    assert {name: n for name, n in products.items() if n > most[name]} == {}


def test_design_jobs_splits_each_distance_job(passes_report):
    # At 20,000 evaluations only n79 and prelift68 get past the pair
    # sweep to rounds and random combinations; the other specs' searches
    # end inside it. The stages are parts of their one distance job.
    report = passes_report("design")
    stages = report["distance_stage_median_s"]
    assert list(stages) == DESIGN_SPECS
    for name in DESIGN_SPECS:
        assert list(stages[name]) == ["sweep", "rounds", "random"]
        assert stages[name]["sweep"] > 0
        beyond = stages[name]["rounds"] > 0 and stages[name]["random"] > 0
        assert beyond == (name in ("n79", "prelift68")), name
        if not beyond:
            assert stages[name]["rounds"] == stages[name]["random"] == 0
        assert sum(stages[name].values()) < report["median_s"][name]["distance"]


@pytest.mark.parametrize("workload", ["ber-waterfall", "ber-highsnr"])
def test_ber_stages_splits_every_pass(passes_report, workload):
    # The wrapped channel names must exist, every pass must reach each
    # stage, and the nested stages must fit inside the ones holding them.
    report = passes_report(workload)
    assert report["workload"] == workload and report["failed_ops"] == 0
    assert list(report["minor_faults_per_pass"]) == ["median", "q1", "q3", "min", "max"]
    stages = report["stages"]
    assert list(stages) == [
        "table", "draw", "encode", "decode", "plan", "kernel", "check", "decode_own", "rest",
    ]
    for name in ("table", "draw", "encode", "decode", "plan", "kernel", "check"):
        assert stages[name]["calls"] > 0 and stages[name]["s"] > 0
    # A pass is one monte_carlo call: one term table, read by every frame's
    # one encode call.
    frames = {"ber-waterfall": 12, "ber-highsnr": 8}[workload]
    assert stages["table"]["calls"] == 1
    assert stages["draw"]["calls"] == stages["encode"]["calls"] == frames
    assert stages["encode"]["s"] < stages["draw"]["s"]
    # Each decode plans its first set of frames and plans again only when
    # frames leave, so a pass plans at least once per decode and at most
    # once per frame, and far less often than it checks.
    assert stages["decode"]["calls"] <= stages["plan"]["calls"] <= frames
    assert stages["plan"]["calls"] < stages["check"]["calls"]
    nested = ("plan", "kernel", "check")
    assert sum(stages[name]["s"] for name in nested) < stages["decode"]["s"]
    assert stages["decode_own"]["s"] > 0
    # Over two passes a median is a mean, so this says that table, draw
    # and decode fit inside the wrapped passes' time.
    assert stages["rest"]["s"] > 0


@pytest.mark.parametrize("workload", ["design", "ber-waterfall", "ber-highsnr"])
def test_passes_splits_the_set_up(passes_report, workload):
    # A design set-up reads three .pmx files and builds six specs, each of
    # which makes its effective matrix once; a BER set-up loads one spec
    # and constructs its generator.
    report = passes_report(workload)
    stages = report["setup_stages"]
    calls = (
        {"pmx": 3, "json": 6, "build": 6, "effective": 6}
        if workload == "design"
        else {"load_spec": 1, "construct_generator": 1}
    )
    assert list(stages) == [*calls, "rest"]
    assert {name: stages[name]["calls"] for name in calls} == calls
    assert all(stages[name]["s"] > 0 for name in calls)
    assert report["setup_s_median"] > 0
    # rest is the median over set-ups of the set-up less its outer stages,
    # so the stages sum to less than the set-up in every one of them.
    assert stages["rest"]["s"] > 0
    if workload == "design":
        assert stages["effective"]["s"] < stages["build"]["s"]


def test_passes_rejects_an_unknown_workload_and_a_single_pass():
    tool = [sys.executable, str(ROOT / "tools" / "passes.py")]
    for argv, words in (
        (["--workload", "bogus"], ["--workload", "invalid choice", "bogus"]),
        (["--passes", "1"], ["--passes >= 2"]),
    ):
        done = subprocess.run(tool + argv, capture_output=True, text=True, timeout=300)
        assert done.returncode == 2, argv
        assert all(word in done.stderr for word in words), done.stderr


def test_pass_faults_counts_the_design_workload(passes_report):
    # The design workload's passes read what its set-up check adds.
    report = passes_report("design")
    assert report["workload"] == "design" and report["passes"] == 2
    assert report["setups_between"] == 1
    assert report["minor_faults_per_pass"]["min"] >= 0
    assert report["pass_s_median"] > 0


@pytest.mark.parametrize("workload", ["design", "ber-highsnr"])
def test_passes_reports_the_quartiles_of_pass_time(passes_report, workload):
    # The inclusive quartiles of the same unwrapped passes as the median:
    # over two passes a and b they are (3a + b) / 4 and (a + 3b) / 4.
    report = passes_report(workload)
    q1, mid, q3 = report["pass_s_q1"], report["pass_s_median"], report["pass_s_q3"]
    assert 0 < q1 <= mid <= q3
    assert math.isclose(q1 + q3, 2 * mid)
