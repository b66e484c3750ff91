"""Record the CLI reference outputs that the ``cli`` workload checks against.

    python3 bench/record_cli_reference.py

Draws a fixed pool of argument vectors for each closed-form command, runs
each once through the CLI, and writes them with their outputs to
``cli_reference.json``.  A workload seed then picks cases from this pool.
Run it again only when a change alters a CLI output on purpose, and say so.
Every case must exit 0; the script stops at the first that does not.
"""

import cmath
import json
import math
import random
import subprocess
import sys

from workloads import CLI_CHILD, CLI_COMMANDS, CLI_REFERENCE, ROOT, child_env

from diskvar.extremal import ExtremalKind  # noqa: E402  (workloads puts src on the path)

CASES_PER_COMMAND = 12
POOL_SEED = 20240315
KINDS = tuple(kind.value for kind in ExtremalKind)


def _pair(z):
    return f"{z.real!r},{z.imag!r}"


def _opt(name, value):
    # "--name=value" keeps argparse from reading a leading minus as an option
    return f"--{name}={value}"


def _point(rng, lo, hi):
    return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random())


def _unimodular(rng):
    return cmath.exp(2j * math.pi * rng.random())


def _disk_args(rng, command):
    z0 = _point(rng, 0.1, 0.9)
    w0 = _point(rng, 0.0, 0.9) * z0
    if command == "disk second":
        args = {"z0": z0, "delta0": _point(rng, 0.0, 0.9), "delta1": _point(rng, 0.0, 0.95)}
    elif command == "disk dieudonne2":
        args = {"z0": z0, "w0": w0, "delta1": _point(rng, 0.0, 0.95)}
    else:
        args = {"z0": z0, "w0": w0, "z": _point(rng, 0.0, 0.9)}
    return [_opt(name, _pair(value)) for name, value in args.items()]


def _thm31_args(rng, index):
    r = rng.uniform(0.05, 0.95)
    R = rng.uniform(0.0, 0.95)
    if index % 2:
        return [_opt("r", repr(r)), _opt("R", repr(R)), "--emit-function"]
    return [_opt("z0", _pair(r * _unimodular(rng))), _opt("delta0", _pair(R * _unimodular(rng))),
            "--emit-function"]


def _table_args(rng):
    r_grid = sorted(rng.uniform(0.05, 0.95) for _ in range(rng.randint(3, 5)))
    R_grid = sorted(rng.uniform(0.0, 0.95) for _ in range(rng.randint(3, 5)))
    return [_opt("r-grid", ",".join(map(repr, r_grid))),
            _opt("R-grid", ",".join(map(repr, R_grid))), "--csv"]


def _verify_args(rng, kind):
    z0 = _point(rng, 0.1, 0.9)
    r = abs(z0)
    args = {"z0": z0}
    if kind in ("schwarz-pick", "second-degenerate", "second-boundary"):
        args["delta0"] = _point(rng, 0.0, 0.9)
    if kind.startswith("dieudonne"):
        args["w0"] = _point(rng, 0.0, 0.9) * z0
    if kind.endswith("degenerate"):
        args["delta1"] = _unimodular(rng)
    if kind.endswith("boundary"):
        args["delta1"] = _point(rng, 0.0, 0.95)
    if kind in ("schwarz-pick", "dieudonne") or kind.endswith("boundary"):
        args["alpha"] = _unimodular(rng)
    if kind == "sharp-deg1":
        args["delta0"] = rng.uniform((2.0 - r) / 2.0, 0.95) * _unimodular(rng)
    if kind == "sharp-deg2":
        args["delta0"] = rng.uniform(0.0, min(0.95, (2.0 - r) / 2.0 - 0.01)) * _unimodular(rng)
    return ["--kind", kind] + [_opt(name, _pair(value)) for name, value in args.items()]


def draw_cases(rng):
    pool = {}
    for command in CLI_COMMANDS:
        argvs = []
        for index in range(CASES_PER_COMMAND):
            if command.startswith("disk"):
                args = _disk_args(rng, command)
            elif command == "bound thm31":
                args = _thm31_args(rng, index)
            elif command == "bound table":
                args = _table_args(rng)
            else:
                args = _verify_args(rng, KINDS[index % len(KINDS)])
            argvs.append(command.split() + args)
        pool[command] = argvs
    return pool


def main():
    cases = {}
    for command, argvs in draw_cases(random.Random(POOL_SEED)).items():
        cases[command] = []
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, str(CLI_CHILD), "0", *argv],
                capture_output=True, text=True, env=child_env(), cwd=ROOT,
            )
            if proc.returncode != 0:
                sys.exit(f"case {argv} exited {proc.returncode}: {proc.stderr.strip()}")
            cases[command].append({"argv": argv, "stdout": proc.stdout})
    with open(CLI_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": POOL_SEED, "cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {sum(map(len, cases.values()))} cases to {CLI_REFERENCE.name}")


if __name__ == "__main__":
    main()
