"""Run a fixed set of CLI commands and print the sha256 of everything they write.

Each command's exit code, stdout and stderr go to ``<name>.log`` in the work
directory and are digested with the model, metrics and data files, so two
checkouts that print the same lines behave byte-identically on this set.
Two datasets of 4000 rows are split in halves first; models trained on the
first 2000 rows of one are evaluated on the rest, the trainers' held-out
error.  Two reformatted copies of ``data.csv`` are evaluated as well, one
read by numpy's reader and one by the row parser, and must print the same
line.
Last come the bound suite on ``metrics.csv`` with two rows swapped (exit 1),
a relu run whose first margin shift overflows (exit 5), and the eval of
``mixed.json``, an ensemble whose members differ in depth, widths and
activation.
The commands run ``python -m selfieboost`` from whichever package the
interpreter imports, e.g. ``PYTHONPATH=src``; relative ``PYTHONPATH`` entries
are resolved against the directory the script starts in, not the work
directory the commands run in.

The first line names the environment: Python, numpy and the platform, since
bit equality across numpy builds or machines is not claimed.
``scripts/digests.txt`` holds the output for the committed code; a change that
alters outputs updates it, so ``git diff`` shows which entries moved.  With
``--expect FILE`` the script prints only the lines that differ from FILE
(``-`` expected, ``+`` got) and exits 0 if none does, 1 if some do, and 3
without running anything if the environment differs from FILE's first line.

Usage: python scripts/check_digests.py [--expect FILE] [workdir]   (an empty or new directory)
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

EXIT_DIFFERS, EXIT_ENVIRONMENT = 1, 3

README_TRAIN = "--hidden 32 --rho 0.1 --T 50 --n 256 --sgd-steps 500 --lr 0.05 --batch 32 --seed 42"

# their rows are split in halves by write_halves before COMMANDS run:
# (data file, first 2000 rows, the rest)
SPLIT_COMMANDS = (
    ("genrelu", "gen-data --m 4000 --d 20 --teacher-hidden 16 --teacher-activation relu --seed 7 "
                "--out datarelu.csv --teacher-out teacherrelu.json"),
    ("gen4k", "gen-data --m 4000 --d 10 --seed 42 --out data4k.csv --teacher-out teacher4k.json"),
)
HALVES = (("datarelu.csv", "relutrain.csv", "reluheld.csv"), ("data4k.csv", "deeptrain.csv", "deepheld.csv"))
SPLIT_ROWS = 2000


def write_halves(workdir: Path) -> None:
    """Write each of the ``HALVES`` data files' first ``SPLIT_ROWS`` rows to one
    file and the rest to another, each under the header."""
    for source, first, rest in HALVES:
        header, *rows = (workdir / source).read_text().splitlines(keepends=True)
        (workdir / first).write_text("".join([header, *rows[:SPLIT_ROWS]]))
        (workdir / rest).write_text("".join([header, *rows[SPLIT_ROWS:]]))


COMMANDS = (
    ("gen", "gen-data --m 2000 --d 10 --seed 42 --out data.csv --teacher-out teacher.json"),
    ("gen8", "gen-data --m 2000 --d 10 --teacher-hidden 8 --seed 42 "
             "--out data8.csv --teacher-out teacher8.json"),
    ("train", f"train --data data.csv --out-model model.json --metrics metrics.csv {README_TRAIN}"),
    # the perfbench ensemble workload
    ("ada8", "train --algo adaboost --data data8.csv --out-model ens8.json --metrics ada8.csv "
             "--hidden 2 --sgd-steps 100 --T 50 --n 256 --lr 0.05 --batch 32 --seed 42"),
    ("sgd", "train --algo sgd --data data.csv --out-model sgd.json --metrics sgd.csv "
            "--sgd-steps 2000 --seed 42"),
    ("widen", "train --data data.csv --out-model widen.json --metrics widen.csv "
              "--hidden 16 --T 10 --sgd-steps 100 --widen-units 4 --threads 2 --seed 42"),
    ("relu", "train --data data.csv --out-model relu.json --metrics relu.csv --activation relu "
             "--hidden 70,9 --init-scale 0.5 --T 10 --seed 42"),
    # one SGD step and no retry find no candidate: exit 4
    ("stall", "train --data data.csv --out-model stall.json --metrics stall.csv --hidden 32 --T 5 "
              "--sgd-steps 1 --max-retries 0 --seed 42"),
    # its SGD attempts end in NumericError mid-loop, then retry
    ("numgen", "gen-data --m 300 --d 5 --teacher-hidden 8 --seed 3 "
               "--out numdata.csv --teacher-out numteacher.json"),
    # a relu teacher on 130 inputs and 70 hidden units
    ("gen130", "gen-data --m 300 --d 130 --teacher-hidden 70 --teacher-activation relu --seed 5 "
               "--out data130.csv --teacher-out teacher130.json"),
    # hidden layers wider than 64 columns, widened 70 -> 82 -> 90 -> 98 across 8-column boundaries
    ("wide130", "train --data data130.csv --out-model wide130.json --metrics wide130.csv "
                "--hidden 70 --widen-units 4 --T 3 --sgd-steps 50 --lr 0.5 --seed 42"),
    # 23 549 attempts over 23 draw blocks, near the 30 000-attempt cap
    ("gen09", "gen-data --m 300 --d 10 --seed 9 --tau 0.9 --out data09.csv --teacher-out teacher09.json"),
    # the attempt cap: exit 3
    ("gencap", "gen-data --m 300 --d 10 --seed 9 --tau 1.0 --out datacap.csv --teacher-out teachercap.json"),
    # the third weak learner is at chance: stops after 2 rounds
    ("ada2", "train --algo adaboost --data data.csv --out-model ens2.json --metrics ada2.csv "
             "--hidden 2 --sgd-steps 5 --T 50 --seed 42"),
    ("num", "train --data numdata.csv --out-model num.json --metrics num.csv --hidden 8 --T 4 "
            "--n 64 --sgd-steps 50 --lr 3e5 --batch 16 --sgd-growth 1.5 --lr-shrink 0.001 --seed 1"),
    # the first attempt violates the clip and 0.4 * 5e-324 underflows to lr 0: exit 4
    ("lrzerogen", "gen-data --m 300 --d 5 --seed 3 --out lrzerodata.csv --teacher-out lrzeroteacher.json"),
    ("lrzero", "train --data lrzerodata.csv --out-model lrzero.json --metrics lrzero.csv --hidden 8 "
               "--T 5 --n 64 --lr 0.4 --lr-shrink 5e-324"),
    # baseline SGD blow-ups: exit 5, no model and no metrics file
    ("sgdnum", "train --algo sgd --data numdata.csv --out-model sgdnum.json --metrics sgdnum.csv "
               "--hidden 8,8 --activation relu --init-scale 1 --sgd-steps 200 --lr 1e50 --seed 1"),
    ("adanum", "train --algo adaboost --data numdata.csv --out-model adanum.json --metrics adanum.csv "
               "--hidden 8,8 --activation relu --init-scale 1 --sgd-steps 200 --lr 1e50 --T 5 --seed 1"),
    ("cmp", f"compare --data data.csv --out cmp.csv {README_TRAIN}"),
    # 50 AdaBoost rounds, as in the perfbench ensemble workload
    ("cmp8", "compare --data data8.csv --out cmp8.csv "
             "--hidden 2 --sgd-steps 100 --T 50 --n 256 --lr 0.05 --batch 32 --seed 42"),
    ("verify", "verify --metrics metrics.csv --m 2000"),
    # non-finite options and a rho that train rejects: exit 64 before any work
    ("growinf", f"train --data data.csv --out-model growinf.json --metrics growinf.csv {README_TRAIN} "
                "--sgd-growth inf"),
    # the first attempt is rejected and its grown budget overflows: exit 4, no traceback
    ("growbig", "train --data data.csv --out-model growbig.json --metrics growbig.csv --T 1 "
                "--sgd-steps 2 --max-retries 1 --sgd-growth 1e308 --seed 42"),
    # fewer picks than the largest intp, but more bytes than one array can hold: exit 4
    ("growbig16", "train --data data.csv --out-model growbig16.json --metrics growbig16.csv --T 1 "
                  "--sgd-steps 2 --max-retries 1 --sgd-growth 5e16 --seed 42"),
    # a budget that does not grow: the retry draws a fresh working set at the same steps
    ("growone", "train --data data.csv --out-model growone.json --metrics growone.csv "
                "--hidden 16 --T 6 --sgd-steps 860 --sgd-growth 1 --seed 42"),
    ("verifyrho", "verify --metrics metrics.csv --m 2000 --rho -1"),
    # the SGD loop's corner shapes: no hidden layer (argparse reads --hidden= as
    # no widths) under all three algorithms, one-row batches, and batches
    # larger than the working set through hidden widths across 8-column groups
    ("lin", "train --data data.csv --out-model lin.json --metrics lin.csv --hidden= --T 5 "
            "--sgd-steps 100 --seed 42"),
    ("linsgd", "train --algo sgd --data data.csv --out-model linsgd.json --metrics linsgd.csv "
               "--hidden= --sgd-steps 300 --seed 42"),
    ("adalin", "train --algo adaboost --data data.csv --out-model adalin.json --metrics adalin.csv "
               "--hidden= --T 4 --sgd-steps 50 --seed 42"),
    ("batch1", "train --data data.csv --out-model batch1.json --metrics batch1.csv --hidden 3 --T 3 "
               "--batch 1 --sgd-steps 200 --seed 42"),
    ("bigbatch", "train --data data.csv --out-model bigbatch.json --metrics bigbatch.csv "
                 "--hidden 9,17 --T 3 --n 16 --batch 64 --sgd-steps 50 --seed 42"),
    # one feature: the input layer reads an unpadded one-column buffer, under
    # no hidden layer (both algorithms) and under hidden 4,1
    ("gen1", "gen-data --m 300 --d 1 --seed 2 --out data1.csv --teacher-out teacher1.json"),
    ("lin1", "train --data data1.csv --out-model lin1.json --metrics lin1.csv --hidden= --T 5 "
             "--sgd-steps 100 --seed 42"),
    ("linsgd1", "train --algo sgd --data data1.csv --out-model linsgd1.json --metrics linsgd1.csv "
                "--hidden= --sgd-steps 300 --seed 42"),
    ("one1", "train --data data1.csv --out-model one1.json --metrics one1.csv --hidden 4,1 --T 5 "
             "--sgd-steps 200 --seed 42"),
    # a relu teacher on which the three trainers differ: SelfieBoost stops
    # with exit 4 on its training half, plain SGD and AdaBoost reach zero
    # training error; each is evaluated on the held-out half
    ("relusb", f"train --data relutrain.csv --out-model relusb.json --metrics relusb.csv {README_TRAIN}"),
    ("relusgd", f"train --algo sgd --data relutrain.csv --out-model relusgd.json --metrics relusgd.csv "
                f"{README_TRAIN} --sgd-steps 20000"),
    ("reluada", f"train --algo adaboost --data relutrain.csv --out-model reluada.json --metrics reluada.csv "
                f"{README_TRAIN}"),
    # three hidden layers of 32: tanh reaches zero error, relu finds no candidate (exit 4)
    ("deeptanh", f"train --data deeptrain.csv --out-model deeptanh.json --metrics deeptanh.csv "
                 f"{README_TRAIN} --hidden 32,32,32"),
    ("deeprelu", f"train --data deeptrain.csv --out-model deeprelu.json --metrics deeprelu.csv "
                 f"{README_TRAIN} --hidden 32,32,32 --activation relu"),
)

EVALS = (
    ("teacher.json", "data.csv"), ("model.json", "data.csv"), ("sgd.json", "data.csv"),
    ("widen.json", "data.csv"), ("relu.json", "data.csv"), ("teacher8.json", "data8.csv"),
    ("ens8.json", "data8.csv"), ("numteacher.json", "numdata.csv"), ("num.json", "numdata.csv"),
    ("teacher130.json", "data130.csv"), ("wide130.json", "data130.csv"), ("teacher09.json", "data09.csv"),
    ("ens2.json", "data.csv"), ("lrzero.json", "lrzerodata.csv"), ("lin.json", "data.csv"),
    ("linsgd.json", "data.csv"), ("adalin.json", "data.csv"), ("batch1.json", "data.csv"),
    ("bigbatch.json", "data.csv"), ("teacher1.json", "data1.csv"), ("lin1.json", "data1.csv"),
    ("linsgd1.json", "data1.csv"), ("one1.json", "data1.csv"), ("stall.json", "data.csv"),
    ("growone.json", "data.csv"), ("growbig.json", "data.csv"), ("growbig16.json", "data.csv"),
    ("lrzeroteacher.json", "lrzerodata.csv"), ("teacherrelu.json", "datarelu.csv"),
    ("relusb.json", "reluheld.csv"), ("relusgd.json", "reluheld.csv"), ("reluada.json", "reluheld.csv"),
    ("teacher4k.json", "data4k.csv"), ("deeptanh.json", "deepheld.csv"), ("deeprelu.json", "deepheld.csv"),
)


def write_odd_copies(workdir: Path) -> None:
    """Derive ``odd.csv`` from ``data.csv``: CRLF endings, blank lines before the
    header and between rows, space-padded fields.  ``odd_us.csv`` also writes
    one value with an underscore, which numpy's reader rejects, so the row
    parser reads it; both must load the same dataset."""
    header, *rows = (workdir / "data.csv").read_text().splitlines()
    rows = [row.split(",") for row in rows]
    for name in ("odd.csv", "odd_us.csv"):
        lines = ["", "", header]
        for k, row in enumerate(rows, start=1):
            lines.append(",".join(f" {v} " for v in row))
            if k % 100 == 0:
                lines.append("")
        (workdir / name).write_bytes("\r\n".join(lines).encode() + b"\r\n")
        value = rows[0][0]
        dot = value.index(".")
        rows[0][0] = f"{value[:dot + 2]}_{value[dot + 2:]}"  # e.g. 0.1234 -> 0.1_234


# their inputs are derived from earlier outputs by write_late_inputs
LATE_COMMANDS = (
    ("verifyswap", "verify --suite bound --metrics swapped.csv --m 2000"),
    ("ovf", "train --data ovfdata.csv --out-model ovf.json --metrics ovf.csv "
            "--hidden 4 --T 2 --seed 1 --activation relu"),
    ("eval-mixed", "eval --model mixed.json --data data.csv"),
)
# hidden 2, 2, 32, (70, 9) relu, 32 and 4: two stacked groups, interleaved;
# the weak members' large alphas and exact ties make the votes decide rows
MIXED_MODELS = ("model.json", "relu.json", "sgd.json", "teacher.json")
MIXED_ALPHAS = (1.0, 0.5, 0.5, 1.0, 0.3, 0.2)


def write_late_inputs(workdir: Path) -> None:
    """``swapped.csv`` is ``metrics.csv`` with its first two rows swapped, which
    breaks the chain of records; ``ovfdata.csv`` has a 1e308 feature;
    ``mixed.json`` holds the members of ``ens2.json`` and then the
    ``MIXED_MODELS``, with the ``MIXED_ALPHAS``."""
    header, first, second, *rest = (workdir / "metrics.csv").read_text().splitlines(keepends=True)
    (workdir / "swapped.csv").write_text("".join([header, second, first, *rest]))
    (workdir / "ovfdata.csv").write_text("f0,f1,label\n1e308,1.0,1\n-1.5,1.0,-1\n0.5,-2,1\n")
    members = json.loads((workdir / "ens2.json").read_text())["members"]
    members += [json.loads((workdir / name).read_text()) for name in MIXED_MODELS]
    mixed = {"format_version": 1, "alphas": list(MIXED_ALPHAS), "members": members}
    (workdir / "mixed.json").write_text(json.dumps(mixed) + "\n")


def run(workdir: Path, name: str, argv: list[str]) -> None:
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "selfieboost", *argv], cwd=workdir, env=env,
        capture_output=True, text=True,
    )
    (workdir / f"{name}.log").write_text(
        f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
    )


def environment() -> str:
    return (f"# python {platform.python_version()} numpy {np.__version__} "
            f"platform {platform.system()}-{platform.machine()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", nargs="?", type=Path, default=Path("out_digests"))
    parser.add_argument("--expect", type=Path, help="digest file to compare with, e.g. scripts/digests.txt")
    args = parser.parse_args()
    expected = args.expect.read_text().splitlines() if args.expect else None
    if expected is not None and expected[:1] != [environment()]:
        print(f"environment differs: expected {expected[:1]}, got {environment()!r}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    workdir = args.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    if any(workdir.iterdir()):
        print(f"error: {workdir} is not empty", file=sys.stderr)
        return 2
    for name, command in SPLIT_COMMANDS:
        run(workdir, name, command.split())
    write_halves(workdir)
    for name, command in COMMANDS:
        run(workdir, name, command.split())
    for model, data in EVALS:
        run(workdir, f"eval-{Path(model).stem}", ["eval", "--model", model, "--data", data])
    write_odd_copies(workdir)
    for data in ("odd.csv", "odd_us.csv"):
        run(workdir, f"eval-{Path(data).stem}", ["eval", "--model", "model.json", "--data", data])
    write_late_inputs(workdir)
    for name, command in LATE_COMMANDS:
        run(workdir, name, command.split())
    lines = [environment()] + [
        f"sha256 {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}" for path in sorted(workdir.iterdir())
    ]
    if expected is None:
        print("\n".join(lines))
        return 0
    diff = [f"- {line}" for line in expected if line not in lines]
    diff += [f"+ {line}" for line in lines if line not in expected]
    print("\n".join(diff) if diff else f"all {len(lines) - 1} digests as in {args.expect}")
    return EXIT_DIFFERS if diff else 0


if __name__ == "__main__":
    sys.exit(main())
