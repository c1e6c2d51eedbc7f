"""Two sha256 digests per output of a fixed list of fixed-seed ``wbiv`` calls.

Two trees give the same numbers when this script prints the same lines for
both. It writes its CSVs from ``simulate_dgp`` into a temporary directory,
runs every call in-process through ``wbiv.cli.main`` and hashes the exit
code, stdout, stderr and the warnings raised. An exception that escapes
``main`` is hashed by its type and message, so no output depends on where
the tree lives. Each line holds the digest of the exact text, then the
digest of the text with every float rounded to 10 significant digits, then
the call's name: a tree that moves only the last bits of some numbers keeps
the rounded digest.

Run from the root of the tree under test:

    PYTHONPATH=src python scripts/output_digest.py

To compare against another checkout, keep this script and point
``PYTHONPATH`` at that checkout's ``src``. ``--show NAME`` prints the
captured text of one call instead of the digests, and ``--dump DIR`` also
writes each call's text to ``DIR/<name>.txt``. ``--compare A B`` reads two
such directories and prints, for each call whose text differs, how many
floats moved, the largest relative move, and whether the text with every
float masked is identical (exit codes, decisions and keys):

    PYTHONPATH=/path/to/parent/src python scripts/output_digest.py --dump parent
    PYTHONPATH=src python scripts/output_digest.py --dump change
    python scripts/output_digest.py --compare parent change

The calls import wbiv when they run, so ``--compare`` needs no checkout on
the path.
"""

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ESTIMATORS = ("tsls", "liml", "full", "ba")
FLOAT = re.compile(r"-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)")
REGISTRY = ("wald", "wald-cr", "ar", "ar-cr", "ar-cr-asymptotic", "lm", "cqlr", "score-wald")


def write_csv(path: Path, cols: dict, cluster: np.ndarray) -> None:
    """The named columns and a cluster column; no w column, so W is an intercept."""
    lines = [",".join(list(cols) + ["cluster"])]
    for i in range(cluster.shape[0]):
        lines.append(",".join([repr(float(c[i])) for c in cols.values()] + [f"c{cluster[i]}"]))
    path.write_text("\n".join(lines) + "\n")


def make_csvs(tmp: Path) -> dict:
    """d_x = 1 at d_z = 1 and 3, and d_x = 2 at d_z = 3, all q = 10; and
    d_x = d_z = 1 at q = 14, where sign sets are sampled."""
    from wbiv.rng import substream
    from wbiv.simulate import DgpConfig, simulate_dgp

    one = simulate_dgp(DgpConfig(d_z=1, pi0=2.0, rho=0.5), substream(11, "digest-dz1"))
    three = simulate_dgp(DgpConfig(d_z=3, pi0=2.0, rho=0.5), substream(12, "digest-dz3"))
    other = simulate_dgp(DgpConfig(d_z=3, pi0=1.0, rho=0.3), substream(13, "digest-dx2"))
    many = simulate_dgp(DgpConfig(q=14, d_z=1, pi0=2.0, rho=0.5), substream(14, "digest-q14"))
    out = {}
    for name, ds, xs in (
        ("dz1", one, [one.X[:, 0]]),
        ("dz3", three, [three.X[:, 0]]),
        ("dx2", three, [three.X[:, 0], other.X[:, 0]]),
        ("q14", many, [many.X[:, 0]]),
    ):
        cols = {"y": ds.y}
        cols.update((f"x{k + 1}", x) for k, x in enumerate(xs))
        cols.update((f"z{k + 1}", z) for k, z in enumerate(ds.Z.T))
        out[name] = tmp / f"{name}.csv"
        write_csv(out[name], cols, ds.cluster_id)
    return out


def calls(csv: dict) -> list[tuple[str, list[str]]]:
    dz1, dz3, dx2 = (str(csv[name]) for name in ("dz1", "dz3", "dx2"))
    sampled = ["--signs", "sampled", "-B", "199", "--seed", "5", "--full"]
    out = [
        (f"test {test}", ["test", dz1, "--test", test, "--beta0", "0.5"] + sampled)
        for test in REGISTRY
    ]
    for test in ("wald", "wald-cr"):
        for method in ESTIMATORS:
            argv = ["test", dz3, "--test", test, "--method", method, "--beta0", "0.5"]
            out.append((f"test {test} {method} dz3", argv + sampled))
    for test in ("ar-cr", "lm", "cqlr"):
        out.append((f"test {test} dz3", ["test", dz3, "--test", test, "--beta0", "0.5"] + sampled))
    argv = ["test", dx2, "--test", "lm", "--beta0", "0.5,0.5"]
    out.append(("test lm dx2", argv + sampled))
    # the complete sign set of q = 10, on which the full-vector tests run
    # half the rows and print the whole distribution
    exhaustive = ["--beta0", "0.5", "--signs", "exhaustive", "--full"]
    pairs = [(t, d) for t in ("ar", "ar-cr", "lm", "cqlr") for d in ("dz1", "dz3")]
    for test, data in pairs + [("score-wald", "dz1")]:
        argv = ["test", str(csv[data]), "--test", test] + exhaustive
        out.append((f"test {test} {data} exhaustive", argv))
    argv = ["test", dx2, "--test", "wald-cr", "--method", "full", "--lam", "1,0.5"]
    out.append(("test wald-cr full dx2", argv + sampled))
    argv = ["test", dx2, "--test", "wald", "--lam", "1,0,0"]
    out.append(("test wald dx2 --lam mismatch", argv + sampled))
    argv = ["test", dz1, "--test", "score-wald", "--lam", "2", "--lambda0", "1"]
    out.append(("test score-wald --lam 2 --lambda0 1", argv + sampled))
    grid = ["--grid-lo", "-3", "--grid-hi", "3", "--step", "0.25", "--seed", "3"]
    for test in ("ar", "wald-cr", "lm", "score-wald", "ar-cr", "cqlr"):
        method = ["--method", "liml"] if test == "wald-cr" else []  # only wald/wald-cr take one
        out.append((f"cs {test}", ["cs", dz1, "--test", test] + method + grid))
    for test in ("lm", "cqlr"):  # d_z = 3, where the Jacobian pieces are matrices
        out.append((f"cs {test} dz3", ["cs", dz3, "--test", test] + grid))
    for test in ("ar", "lm"):  # one sampled sign set per grid point
        argv = ["cs", str(csv["q14"]), "--test", test, "-B", "199", "--sign-mode", "fresh"]
        out.append((f"cs {test} q14 fresh", argv + grid))
    out.append(("test ar --beta0 nan", ["test", dz1, "--test", "ar", "--beta0", "nan"]))
    out.append(("cs ar --step nan", ["cs", dz1, "--test", "ar", "--step", "nan"]))
    out.append(("cs ar --grid-lo -inf", ["cs", dz1, "--test", "ar", "--grid-lo", "-inf"]))
    out.append(("simulate size --pi0 nan", ["simulate", "size", "--pi0", "nan"]))
    out.append(("fit liml", ["fit", dz3, "--method", "liml"]))
    out.append(("fit liml dx2", ["fit", dx2, "--method", "liml"]))
    out.append(("fit --cluster-dummies", ["fit", dz3, "--cluster-dummies"]))
    out.append(("diagnose", ["diagnose", dz3]))
    out.append((
        "simulate size",
        ["simulate", "size", "--dz", "3", "--pi0", "2", "--rho", "0.5", "--reps", "100",
         "-B", "49", "--seed", "2", "--tests", "WB-US:liml,WB-S:full,WB-AR-S,WB-LM,WB-CQLR"],
    ))
    argv = ["test", dz1, "--test", "ar", "--beta0", "0.5", "--signs", "sampled", "-B", "199",
            "--seed", "5", "--format", "csv"]
    out.append(("test ar --format csv", argv))
    small = ["--dz", "1", "--pi0", "2", "--rho", "0.5", "--reps", "100", "-B", "19", "--seed", "2"]
    argv = ["simulate", "size"] + small + ["--tests", "WB-US:tsls,WB-AR-S", "--format", "csv"]
    out.append(("simulate size --format csv", argv))
    argv = ["simulate", "power"] + small + ["--beta-grid=-0.5,0,0.5", "--tests", "WB-AR-US"]
    out.append(("simulate power --beta-grid", argv))
    out.append(("simulate power --beta-grid --format csv", argv + ["--format", "csv"]))
    return out


def capture(argv: list[str]) -> str:
    from wbiv.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 - an escaped exception is an output
                code = f"uncaught {type(exc).__name__}: {exc}"
    warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return f"exit {code}\n{stdout.getvalue()}--stderr--\n{stderr.getvalue()}--warnings--\n{warned}"


def rounded(text: str) -> str:
    """``text`` with every float (a number with a point or an exponent)
    rounded to 10 significant digits."""
    return FLOAT.sub(lambda m: f"{float(m.group()):.10g}", text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compare(a: str, b: str) -> str:
    """One line on how the text ``b`` moved from ``a``: the floats that
    moved, the largest relative move, and whether the masked texts agree."""
    if FLOAT.sub("<float>", a) != FLOAT.sub("<float>", b):
        return "masked text differs"
    x, y = (np.array([float(f) for f in FLOAT.findall(t)]) for t in (a, b))
    moved = x != y
    scale = np.maximum(np.abs(x), np.abs(y))[moved]
    worst = float(np.max(np.abs(x - y)[moved] / scale)) if moved.any() else 0.0
    return f"{int(moved.sum())} of {x.size} floats moved, largest relative move {worst:.2g}, " \
           "masked text identical"


def compare_dirs(a: Path, b: Path) -> None:
    """:func:`compare` for every call dumped in both directories whose text
    differs, and the calls dumped in only one of them."""
    names = sorted({p.name for p in a.glob("*.txt")} | {p.name for p in b.glob("*.txt")})
    for name in names:
        if not (a / name).exists() or not (b / name).exists():
            print(f"{name[:-4]}: only in {b if (b / name).exists() else a}")
            continue
        ta, tb = (a / name).read_text(), (b / name).read_text()
        if ta != tb:
            print(f"{name[:-4]}: {compare(ta, tb)}")


def main_digest() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--show", help="print the captured output of the call with this name")
    parser.add_argument("--dump", type=Path, help="also write each call's output to DIR/<name>.txt")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two --dump directories instead of running the calls")
    args = parser.parse_args()
    if args.compare:
        compare_dirs(*args.compare)
        return
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        todo = calls(make_csvs(tmp))
        if args.show:
            todo = [(name, argv) for name, argv in todo if name == args.show]
            if not todo:
                sys.exit(f"no call named {args.show!r}")
        for name, argv in todo:
            text = capture(argv).replace(str(tmp), "<tmp>")
            if args.dump:
                (args.dump / f"{name}.txt").write_text(text)
            if args.show:
                sys.stdout.write(text)
            else:
                print(digest(text), digest(rounded(text)), name)


if __name__ == "__main__":
    main_digest()
