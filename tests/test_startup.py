"""Start-up and exit contract: `import optikit` loads no submodule, each command
loads only the modules it uses, every command runs without numpy at its default
sizes, and no command loads `dataclasses`; the commands that run without numpy
load no `inspect` either.  A `python -m optikit.cli` process prints what `main`
prints in-process and ends as `cli.run` says: the `atexit` handlers run and the
output is flushed before `os._exit`, a traced or profiled process ends by
`sys.exit`, and one whose stdout fails (a closed pipe, a full device, fd 1
closed) prints one `error:` line and exits 1.

numpy, which imports `inspect` itself, loads with the array route of `quantum`,
which `make_single_mode` takes past `quantum.LIST_DIM` levels, and with the
`emoptics` kernel, which `interface` takes past `cli.SCALAR_SAMPLES` samples.
Each check runs in a fresh interpreter, because this test process has long
since imported numpy.
"""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import optikit
import optikit.cli

SRC = Path(optikit.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
# numpy, the `inspect` it imports, and the field modules, which a ray command does not load
NUMPY_MODULES = ("numpy", "inspect", "optikit.emoptics", "optikit.quantum")


def run_fresh(code: str):
    """Run `code` in a new interpreter importing optikit from this tree; return
    the JSON value it prints on its last line."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["optikit", "optikit.cli", "optikit.emoptics", "optikit.quantum"])
def test_import_loads_no_numpy(module):
    others = [m for m in NUMPY_MODULES if m != module]
    code = f"import json, sys\nimport {module}\nprint(json.dumps([m for m in {others!r} if m in sys.modules]))"
    assert run_fresh(code) == []


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["matrix", str(SAMPLES / "biconvex.osys")], 0),
        (["trace", str(SAMPLES / "single_space.osys"), "--y0", "1e-3", "--theta0", "0"], 0),
        (["stability", str(SAMPLES / "fp_stable.res"), "--oracle"], 0),
        (["beam", str(SAMPLES / "single_space.osys"), "--lambda", "1e-6", "--w", "1e-3", "--R", "inf"], 0),
        # usage errors of the numpy commands are caught before their imports
        (["interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "95"], 2),
        (["quantum", "--omega", "1", "--dim", "1"], 2),
    ],
    ids=["matrix", "trace", "stability", "beam", "interface-usage", "quantum-usage"],
)
def test_ray_commands_run_without_numpy(argv, exit_code):
    code = (
        "import contextlib, io, json, sys\n"
        "import optikit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = optikit.cli.main({argv!r})\n"
        f"print(json.dumps([code] + [m for m in {NUMPY_MODULES!r} if m in sys.modules]))"
    )
    assert run_fresh(code) == [exit_code]


@pytest.mark.parametrize("samples, numpy", [(1000, False), (optikit.cli.SCALAR_SAMPLES, False),
                                            (optikit.cli.SCALAR_SAMPLES + 1, True)])
def test_interface_loads_numpy_only_past_the_scalar_route(samples, numpy, capsys):
    argv = ["interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "30", "--samples", str(samples)]
    code = (
        "import contextlib, io, json, sys\n"
        "import optikit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = optikit.cli.main({argv!r})\n"
        "print(json.dumps([code, 'numpy' in sys.modules, out.getvalue()]))"
    )
    # the same bytes as in this process
    assert optikit.cli.main(argv) == 0
    assert run_fresh(code) == [0, numpy, capsys.readouterr().out]


@pytest.mark.parametrize("argv, numpy", [
    (["quantum", "--omega", "1"], False),
    (["quantum", "--omega", "1.3", "--hbar", "0.9", "--dim", str(optikit.quantum.LIST_DIM)], False),
    (["quantum", "--omega", "1.3", "--hbar", "0.9", "--dim", str(optikit.quantum.LIST_DIM + 1)], True),
], ids=["default", "list-dim", "past-list-dim"])
def test_quantum_loads_numpy_only_past_the_list_route(argv, numpy, capsys):
    code = (
        "import contextlib, io, json, sys\n"
        "import optikit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = optikit.cli.main({argv!r})\n"
        "print(json.dumps([code, 'numpy' in sys.modules, 'inspect' in sys.modules, out.getvalue()]))"
    )
    # the same bytes as in this process
    assert optikit.cli.main(argv) == 0
    assert run_fresh(code) == [0, numpy, numpy, capsys.readouterr().out]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "30"], ["cli", "core", "emoptics", "errors"]),
        (["quantum", "--omega", "1"], ["cli", "core", "errors", "quantum"]),
        (["matrix", str(SAMPLES / "biconvex.osys")], ["cli", "core", "errors", "rayoptics", "resonator", "sysdesc"]),
        (["beam", str(SAMPLES / "single_space.osys"), "--lambda", "1e-6", "--w", "1e-3", "--R", "inf"],
         ["cli", "core", "errors", "gaussian", "rayoptics", "resonator", "sysdesc"]),
    ],
    ids=["import", "interface", "quantum", "matrix", "beam"],
)
def test_commands_load_only_their_modules(argv, loaded):
    # `interface` and `quantum` compile none of the ray modules' source
    code = (
        "import contextlib, io, json, sys\n"
        "import optikit\n"
        f"if {argv!r}:\n"
        "    import optikit.cli\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        optikit.cli.main({argv!r})\n"
        "print(json.dumps(sorted(m.split('.')[1] for m in sys.modules if m.startswith('optikit.'))))"
    )
    assert run_fresh(code) == loaded


RAY_PATH = ("dataclasses", "inspect", "numbers")


@pytest.mark.parametrize(
    "argv, modules",
    [
        ([], RAY_PATH),
        (["matrix", str(SAMPLES / "biconvex.osys")], RAY_PATH),
        (["trace", str(SAMPLES / "single_space.osys"), "--y0", "1e-3", "--theta0", "0"], RAY_PATH),
        (["stability", str(SAMPLES / "fp_stable.res"), "--oracle"], RAY_PATH),
        (["beam", str(SAMPLES / "single_space.osys"), "--lambda", "1e-6", "--w", "1e-3", "--R", "inf"], RAY_PATH),
        (["interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "30"], RAY_PATH),
        (["quantum", "--omega", "1"], RAY_PATH),
    ],
    ids=["import", "matrix", "trace", "stability", "beam", "interface", "quantum"],
)
def test_ray_path_loads_no_dataclasses(argv, modules):
    # every record type is a plain slotted class: `dataclasses`, and the
    # `inspect` it imports, would cost every process about 11 ms; `core._real`
    # imports `numbers` only for an outside real that is not a float
    code = (
        "import contextlib, io, json, sys\n"
        "import optikit.cli\n"
        "code = 0\n"
        f"if {argv!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        code = optikit.cli.main({argv!r})\n"
        f"print(json.dumps([code] + [m for m in {modules!r} if m in sys.modules]))"
    )
    assert run_fresh(code) == [0]


def test_field_modules_resolve_on_first_use():
    code = (
        "import json, sys\n"
        "import optikit\n"
        "resolved = [optikit.emoptics is sys.modules['optikit.emoptics'],\n"
        "            optikit.quantum is sys.modules['optikit.quantum']]\n"
        "from optikit import emoptics, quantum\n"
        "resolved += [emoptics is optikit.emoptics, quantum is optikit.quantum,\n"
        "             callable(quantum.make_single_mode), 'numpy' not in sys.modules]\n"
        "print(json.dumps(resolved))"
    )
    assert run_fresh(code) == [True] * 6


def test_misspelled_attribute_raises():
    code = (
        "import json\n"
        "import optikit\n"
        "errors = []\n"
        "for name in ('emoptic', 'quantums', '_LAZY'):\n"
        "    try:\n"
        "        getattr(optikit, name)\n"
        "    except AttributeError as exc:\n"
        "        errors.append(str(exc))\n"
        "try:\n"
        "    from optikit import quantm\n"
        "except ImportError:\n"
        "    errors.append('import')\n"
        "print(json.dumps(errors))"
    )
    assert run_fresh(code) == [
        "module 'optikit' has no attribute 'emoptic'",
        "module 'optikit' has no attribute 'quantums'",
        "module 'optikit' has no attribute '_LAZY'",
        "import",
    ]


def buffered_env() -> dict[str, str]:
    """The environment of a process importing optikit from this tree, with stdout
    block-buffered (PYTHONUNBUFFERED unset), so that output left unflushed at exit is lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env["COLUMNS"] = "80"  # argparse's help width
    return env


def run_process(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """`python <args>` in `buffered_env()`."""
    return subprocess.run([sys.executable, *args], env=buffered_env(), text=True, timeout=60, **kwargs)


def cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    return run_process(["-m", "optikit.cli", *argv], capture_output=True)


MATRIX = ["matrix", str(SAMPLES / "biconvex.osys")]


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (MATRIX, 0),
        (["trace", str(SAMPLES / "biconvex.osys"), "--y0", "1e-3", "--theta0", "0.01", "--format", "csv"], 0),
        (["stability", str(SAMPLES / "fp_unstable.res"), "--oracle"], 0),
        (["beam", str(SAMPLES / "single_space.osys"), "--lambda", "1e-6", "--w", "1e-3", "--R", "inf"], 0),
        (["interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "30"], 0),
        (["quantum", "--omega", "1"], 0),
        (["matrix", str(SAMPLES / "malformed.osys")], 2),
        (["matrix", str(SAMPLES / "invalid_index.osys")], 1),
        (["--help"], 0),
    ],
    ids=["matrix", "trace", "stability", "beam", "interface", "quantum", "usage", "failure", "help"],
)
def test_process_prints_what_main_prints(argv, exit_code, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = optikit.cli.main(argv)
    assert code == exit_code and out.getvalue() + err.getvalue()
    proc = cli_process(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.getvalue(), err.getvalue())


def test_atexit_handlers_run_before_the_exit():
    code = (
        "import atexit, sys\n"
        "import optikit.cli\n"
        "atexit.register(print, 'handler ran')\n"
        f"sys.argv = ['optikit', *{MATRIX!r}]\n"
        "optikit.cli.run()\n"
    )
    proc = run_process(["-c", code], capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == cli_process(MATRIX).stdout + "handler ran\n"


# a value whose finalizer writes to stderr when the interpreter's teardown clears
# the module it lives in; `os._exit` skips that teardown
_FINALIZED = (
    "import os, sys\n"
    "import optikit.cli\n"
    "class Finalized:\n"
    "    def __del__(self, write=os.write):  # bound now: teardown clears module globals\n"
    "        write(2, b'teardown ran\\n')\n"
    "value = Finalized()\n"
    f"sys.argv = ['optikit', *{MATRIX!r}]\n"
)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_teardown_is_skipped_unless_traced(traced):
    # a tracer (as coverage sets) keeps the interpreter's own exit
    tracer = "sys.settrace(lambda frame, event, arg: None)\n" if traced else ""
    proc = run_process(["-c", _FINALIZED + tracer + "optikit.cli.run()\n"], capture_output=True)
    assert proc.returncode == 0 and proc.stdout == cli_process(MATRIX).stdout
    assert proc.stderr == ("teardown ran\n" if traced else "")


def test_cprofile_prints_its_table():
    proc = run_process(["-m", "cProfile", "-m", "optikit.cli", *MATRIX], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(cli_process(MATRIX).stdout)
    assert "function calls" in proc.stdout and "Ordered by:" in proc.stdout


def assert_one_error_line(code: int, err: str) -> None:
    """Exit 1 with one `error:` line naming stdout on stderr, and no traceback."""
    assert code == 1, err
    assert err.startswith("error: cannot write to stdout: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_stdout_that_cannot_flush_ends_as_the_interpreter_ends_it():
    # the reader is gone before the process writes (`| head -c0`): the flush
    # fails, and `run` reports it as one error line and exits 1, where the
    # interpreter's own exit printed "Exception ignored ... BrokenPipeError"
    # and exited 120
    proc = subprocess.Popen([sys.executable, "-m", "optikit.cli", *MATRIX], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=buffered_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert_one_error_line(proc.wait(timeout=60), err)
    assert "Broken pipe" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_on_a_full_device_is_one_error_line(unbuffered):
    # buffered, the flush in `run` fails; unbuffered, `main`'s first print does
    # (a traceback from `print` before)
    env = dict(buffered_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "optikit.cli", *MATRIX], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert_one_error_line(proc.returncode, proc.stderr)
    assert "No space left on device" in proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 between fork and exec")
def test_closed_stdout_is_one_error_line():
    # with fd 1 closed `sys.stdout` is None, and print() writes nothing: the
    # command exited 0 having printed nothing
    proc = subprocess.run([sys.executable, "-m", "optikit.cli", *MATRIX], stderr=subprocess.PIPE, text=True,
                          env=buffered_env(), timeout=60, preexec_fn=lambda: os.close(1))
    assert_one_error_line(proc.returncode, proc.stderr)
    assert proc.stderr == "error: cannot write to stdout: stdout is closed\n"


def test_console_script_is_run():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = re.findall(r'^(\S+) = "(\S+)"$', section, re.M)
    assert scripts == [("optikit", "optikit.cli:run")]
    module, name = scripts[0][1].split(":")
    assert getattr(importlib.import_module(module), name) is optikit.cli.run
