"""Byte-identity sweep of the optikit CLI over a fixed grid of invocations.

Runs `optikit.cli.main` in-process, with the package imported from the
given source directory, over all six subcommands: every file in `samples/`,
generated files that put an edge value in each n, d and R position, edge
values of every numeric flag, and other spellings of the generated base
files (CRLF, tabs, comments and the like).  Writes one JSON line per
invocation (argv, exit code, stdout, stderr, the exception raised if any,
warnings shown), so the outputs of two source trees can be compared with
`diff`.  The grid is fixed, so a run is deterministic.

Exits 1 if any invocation raised, exited outside {0, 1, 2}, or exited
nonzero without an `error: ` line on stderr.

    python tests/cli_sweep.py src sweep.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from pathlib import Path

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

REAL = ["0", "-0", "inf", "-inf", "nan", "5e-324", "-5e-324", "1e-300", "1e308", "-1e308", "-1", "1", "1e-6"]
SIZE = ["-1", "0", "1", "2", "17", "1.5", "2000000"]

# a folded path whose Moebius denominator exceeds the float range for
# q = 1e308 + 1e308j; each {} is a position that takes an edge value
SYSTEM = (
    "[system]\nfreespace n={} d={}\ninterface spherical R={}\nfreespace n={} d={}\n"
    "interface plane kind=reflected\nfreespace n={} d={}\n"
)
SYSTEM_BASE = ["0.5", "0.1", "0.5", "1.5", "0.2", "1", "1"]
RESONATOR = "[resonator]\ninterface spherical R={}\nfreespace n={} d={}\ninterface spherical R={}\n"
RESONATOR_BASE = ["1.0", "1.0", "0.5", "1.0"]


# other spellings of the base files, each read by the tokenizer route of
# `sysdesc.parse` rather than its match of the canonical spelling
SPELLINGS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "tabs": lambda text: text.replace(" ", "\t"),
    "indented": lambda text: text.replace("\n", "\n  "),
    "comments": lambda text: text.replace("\n", "  # note\n"),
    "double_spaces": lambda text: text.replace(" ", "  "),
    "no_final_newline": lambda text: text.rstrip("\n"),
    # a mirror takes no kind=, so on a resonator this is an error
    "kind_everywhere": lambda text: "\n".join(
        line + " kind=transmitted" if line.startswith("interface") and "kind=" not in line else line
        for line in text.split("\n")),
}


def _variants(template: str, base: list[str]) -> list[str]:
    """The base file, then one file per (position, edge value)."""
    out = [template.format(*base)]
    for i, value in itertools.product(range(len(base)), REAL):
        out.append(template.format(*base[:i], value, *base[i + 1:]))
    return out


def write_files(workdir: Path) -> tuple[list[str], list[str], list[str], list[str]]:
    """Copy the samples and write the generated files; return the (system,
    resonator) names, then those of the base files' other spellings."""
    systems, resonators, spelled_systems, spelled_resonators = [], [], [], []
    for path in sorted(SAMPLES.iterdir()):
        shutil.copy(path, workdir / path.name)
        (resonators if path.suffix == ".res" else systems).append(path.name)
    for names, suffix, texts in (
        (systems, "osys", _variants(SYSTEM, SYSTEM_BASE)),
        (resonators, "res", _variants(RESONATOR, RESONATOR_BASE)),
    ):
        for i, text in enumerate(texts):
            name = f"gen{i:03d}.{suffix}"
            (workdir / name).write_text(text)
            names.append(name)
    for names, suffix, base in ((spelled_systems, "osys", SYSTEM.format(*SYSTEM_BASE)),
                                (spelled_resonators, "res", RESONATOR.format(*RESONATOR_BASE))):
        for spelling, respell in SPELLINGS.items():
            name = f"{spelling}.{suffix}"
            (workdir / name).write_bytes(respell(base).encode())  # bytes: no newline translation
            names.append(name)
    return systems, resonators + ["missing.res"], spelled_systems, spelled_resonators


def _system_argvs(f: str) -> list[list[str]]:
    return [
        ["matrix", f],
        ["trace", f, "--y0=1e-3", "--theta0=0"],
        ["trace", f, "--y0=1", "--theta0=0.1", "--format=csv"],
        ["beam", f, "--lambda=1e-6", "--w=1e-3", "--R=inf"],
        ["beam", f, "--lambda=1e-6", "--q-re=0", "--q-im=1"],
        ["beam", f, "--lambda=1e-6", "--q-re=1e308", "--q-im=1e308"],
    ]


def _resonator_argvs(f: str) -> list[list[str]]:
    return [["stability", f], ["stability", f, "--oracle", "--round-trips=50"]]


def invocations(systems: list[str], resonators: list[str], spelled_systems: list[str],
                spelled_resonators: list[str]) -> list[list[str]]:
    fold, lens = "gen000.osys", "biconvex.osys"
    argvs = []
    for f in systems + ["missing.osys"]:
        argvs += _system_argvs(f)
    for f in resonators:
        argvs += _resonator_argvs(f)
    for y0, theta0 in itertools.product(REAL, REAL):
        argvs.append(["trace", lens, f"--y0={y0}", f"--theta0={theta0}"])
    for q_re, q_im in itertools.product(REAL, REAL):
        argvs.append(["beam", fold, "--lambda=1e-6", f"--q-re={q_re}", f"--q-im={q_im}"])
    for f, v in itertools.product((fold, "single_space.osys"), REAL):
        argvs += [
            ["beam", f, f"--lambda={v}", "--w=1e-3", "--R=inf"],
            ["beam", f, "--lambda=1e-6", f"--w={v}", "--R=inf"],
            ["beam", f, "--lambda=1e-6", "--w=1e-3", f"--R={v}"],
        ]
    for v in REAL:
        argvs += [
            ["stability", "fp_stable.res", "--oracle", "--round-trips=50", f"--y0={v}"],
            ["stability", "fp_unstable.res", "--oracle", "--round-trips=50", f"--theta0={v}"],
            ["interface", "--n1=1", "--n2=1.5", f"--theta-deg={v}", "--samples=5"],
            ["interface", "--n1=1", "--n2=1.5", "--theta-deg=30", f"--a={v}", "--samples=5"],
        ]
    for n1, n2 in itertools.product(REAL, REAL):
        argvs.append(["interface", f"--n1={n1}", f"--n2={n2}", "--theta-deg=30", "--samples=5"])
    for omega, hbar in itertools.product(REAL, REAL):
        argvs.append(["quantum", f"--omega={omega}", f"--hbar={hbar}", "--dim=4"])
    for v in SIZE:
        argvs += [
            ["stability", "fp_stable.res", "--oracle", f"--round-trips={v}"],
            ["interface", "--n1=1", "--n2=1.5", "--theta-deg=30", f"--samples={v}"],
            ["interface", "--n1=1", "--n2=1.5", "--theta-deg=30", "--samples=5", f"--seed={v}"],
            ["quantum", "--omega=1", f"--dim={v}"],
        ]
    # sample counts around the draw block of 4096, and seeds beyond 32 bits, across a block edge
    for v in ("4095", "4096", "4097", "8193"):
        argvs.append(["interface", "--n1=1", "--n2=1.5", "--theta-deg=30", f"--samples={v}"])
    for v in (2**32 + 1, 2**70 + 5, -(2**40)):
        argvs.append(["interface", "--n1=1", "--n2=1.5", "--theta-deg=30", "--samples=4097", f"--seed={v}"])
    argvs += [[], ["matrix"], ["matrix", lens, "--bogus"], ["trace", lens, "--y0=0", "--theta0=0", "--format=tsv"],
              ["beam", lens, "--lambda=1e-6"], ["beam", lens, "--lambda=1e-6", "--q-re=0"],
              ["beam", lens, "--lambda=1e-6", "--w=1e-3"], ["stability", lens], ["matrix", "fp_stable.res"],
              ["interface", "--n1=1.5", "--n2=1", "--theta-deg=60"], ["quantum", "--omega=1"]]
    # last, so that the lines before them stay as they were
    for f in spelled_systems:
        argvs += _system_argvs(f)
    for f in spelled_resonators:
        argvs += _resonator_argvs(f)
    return argvs


def run_one(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, raised, tb = None, None, None
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # recorded and reported: the sweep goes on
            raised, tb = f"{type(exc).__name__}: {exc}", traceback.format_exc()
    if tb is not None:
        print(f"{argv} raised:\n{tb}", file=sys.stderr)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "raised": raised,
            "warnings": [f"{w.category.__name__}: {w.message}" for w in shown]}


def faulty(record: dict) -> bool:
    if record["raised"] is not None or record["exit"] not in (0, 1, 2):
        return True
    return record["exit"] != 0 and "error: " not in record["stderr"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the optikit package")
    parser.add_argument("out", help="JSON-lines file to write")
    args = parser.parse_args()
    out_path = os.path.abspath(args.out)
    sys.path.insert(0, os.path.abspath(args.src))
    from optikit import cli

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative file names keep paths out of the recorded output
        names = write_files(Path(tmp))
        os.chdir(tmp)
        try:
            records = [run_one(cli.main, argv) for argv in invocations(*names)]
        finally:
            os.chdir(here)
    with open(out_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    bad = [r for r in records if faulty(r)]
    exits = Counter(r["exit"] for r in records)
    print(f"{len(records)} invocations, exits {dict(sorted(exits.items(), key=str))}, {len(bad)} faulty")
    for record in bad:
        print(f"faulty: {json.dumps(record)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
