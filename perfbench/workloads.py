"""The four workloads: job lists and their seeded inputs.

A job is one griddesigns CLI command.  Fixed jobs (figures, families,
searches, scans) do not depend on the seed; their stdout hash and exit code
are pinned in expected.json.  Seeded jobs read random graph files made from
the seed and are checked by invariants that hold for any seed.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("witness-verify", "class-search", "oracle-crosscheck", "param-scan")

# (m, n, k, how many) per pass; graph files are random k-edge subsets.
DENSE_MIX = [(8, 8, 24, 10), (8, 8, 32, 10), (7, 7, 20, 10), (6, 6, 14, 10),
             (8, 6, 20, 10), (7, 5, 14, 10), (5, 5, 10, 10), (8, 7, 22, 10)]
# (m, k, how many): k edges inside a 4x4 patch of an m x m grid
SPARSE_MIX = [(12, 6, 1), (13, 6, 1), (14, 6, 1)]
ORACLE_MIX = [(4, 3, 3, 8), (4, 3, 4, 8), (4, 3, 5, 8), (4, 3, 6, 8),
              (4, 4, 3, 6), (4, 4, 4, 6), (4, 4, 6, 6),
              (5, 3, 4, 6), (5, 3, 6, 6),
              (5, 4, 4, 8), (5, 4, 6, 6),
              (5, 5, 3, 8), (5, 5, 4, 8),
              (6, 4, 3, 6), (6, 4, 4, 8)]

SEARCHES = [
    "--m 8 --k 9 --target dhat2",
    "--m 7 --k 8 --target dhat2",
    "--m 7 --k 8 --target dhat2 --dedup side-preserving",
    "--m 8 --k 20 --target dhat3",
    "--m 8 --n 2 --k 6 --target d3 --dedup side-preserving",
    "--m 7 --n 4 --k 9 --target d2 --dedup side-preserving",
    "--m 6 --k 7 --target flag-dhat2",
    "--m 5 --k 10 --target dhat2",
    "--m 7 --k 8 --target flag-dhat2",
]
SCANS = [
    "--square3 --max-m 200",
    "--square2 --max-m 300",
    "--general3 --max-m 60 --max-n 60",
]
FAMILY_SIDES = (6, 8, 10)
PATH_KS = (3, 6, 9)
CYCLE_KS = (4, 8, 12)
# square G-oracles with flag and orbit-ratio checks: (family, k, m)
G_ORACLES = [("cycle", 6, 4), ("cycle", 8, 5), ("path", 5, 5)]


@dataclass(frozen=True)
class Job:
    id: str                  # stable name; the key of a pinned output
    argv: tuple[str, ...]
    check: str               # "pinned", "report" or "crosscheck"
    shape: tuple[int, int, int] | None = None   # (m, n, k) of a seeded graph
    group: str = "K"         # verify --group of a seeded job


def graph_text(m: int, n: int, edges) -> str:
    return f"grid {m} {n}\n" + "".join(f"edge {i} {j}\n" for i, j in sorted(edges))


def random_edges(rng: random.Random, rows: int, cols: int, k: int):
    cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    return rng.sample(cells, k)


def relabel(rng: random.Random, m: int, n: int, edges):
    """The image of the edges under a random row and column permutation,
    and on square grids a transpose half of the time."""
    rows = rng.sample(range(1, m + 1), m)
    cols = rng.sample(range(1, n + 1), n)
    out = [(rows[i - 1], cols[j - 1]) for i, j in edges]
    if m == n and rng.random() < 0.5:
        out = [(j, i) for i, j in out]
    return out


def _emit(cli_main, argv: list[str], path: Path):
    """Write the stdout of one CLI call (a family graph) to path."""
    with path.open("w") as fh, contextlib.redirect_stdout(fh):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"griddesigns {' '.join(argv)} exited {code}")


def _seeded_verify(prefix, pool, rng, workdir, mix, patch=None, oracle=False):
    jobs = []
    for m, n, k, count in mix:
        for idx in range(count):
            edges = relabel(rng, m, n, random_edges(pool, patch or m, patch or n, k))
            path = workdir / f"{prefix}-{m}x{n}-k{k}-{idx}.grid"
            path.write_text(graph_text(m, n, edges))
            group = "both" if m == n else "K"
            argv = ["verify", str(path), "--t", "3", "--group", group, "--format", "json"]
            if oracle:
                argv.insert(4, "--with-oracle")
            jobs.append(Job(path.stem, tuple(argv),
                            "crosscheck" if oracle else "report", (m, n, k), group))
    return jobs


def build(workload: str, seed: int, workdir: Path, cli_main) -> list[Job]:
    """Write the workload's input files into workdir and return its jobs.

    Seeded graphs come from a pool of random graphs that is the same for
    every seed; the seed relabels each one (rows, columns, transpose).  So
    every seed asks for the same work on different input files: graphs drawn
    afresh per seed made wall_s differ by about 9% between seeds, because
    the oracle's cost follows the stabilizer order, which is heavy-tailed.
    """
    pool = random.Random(f"{workload}:pool")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "witness-verify":
        jobs = []
        for fig, group in (("fig1", "both"), ("fig2", "K"), ("fig3", "both")):
            path = workdir / f"{fig}.grid"
            _emit(cli_main, ["family", "figure", "--which", fig], path)
            jobs.append(Job(f"verify {fig} --t 3 --group {group}",
                            ("verify", str(path), "--t", "3", "--group", group), "fixed"))
        families = [("path", k, m) for m in FAMILY_SIDES for k in PATH_KS]
        families += [("cycle", k, m) for m in FAMILY_SIDES for k in CYCLE_KS]
        families += [("path", 6, 14), ("cycle", 8, 12)]
        for kind, k, m in families:
            path = workdir / f"{kind}{k}-{m}.grid"
            _emit(cli_main, ["family", kind, "--k", str(k), "--m", str(m)], path)
            jobs.append(Job(f"verify {kind} k={k} on {m}x{m} --t 3 --group both",
                            ("verify", str(path), "--t", "3", "--group", "both",
                             "--format", "json"), "fixed"))
        jobs += _seeded_verify("sparse", pool, rng, workdir,
                               [(m, m, k, c) for m, k, c in SPARSE_MIX], patch=4)
        jobs += _seeded_verify("dense", pool, rng, workdir, DENSE_MIX)
        return jobs
    if workload == "class-search":
        return [Job(f"search {spec}", ("search", *spec.split()), "fixed")
                for spec in SEARCHES]
    if workload == "oracle-crosscheck":
        path = workdir / "fig2.grid"
        _emit(cli_main, ["family", "figure", "--which", "fig2"], path)
        jobs = [Job("oracle fig2 --t 3", ("oracle", str(path), "--t", "3"), "fixed")]
        for kind, k, m in G_ORACLES:
            path = workdir / f"{kind}{k}-{m}.grid"
            _emit(cli_main, ["family", kind, "--k", str(k), "--m", str(m)], path)
            jobs.append(Job(f"oracle {kind} k={k} on {m}x{m} --group G --t 2 --flags --ratio",
                            ("oracle", str(path), "--group", "G", "--t", "2",
                             "--flags", "--ratio"), "fixed"))
        jobs += _seeded_verify("random", pool, rng, workdir, ORACLE_MIX, oracle=True)
        return jobs
    if workload == "param-scan":
        return [Job(f"scan {spec}", ("scan", *spec.split()), "fixed") for spec in SCANS]
    raise ValueError(f"unknown workload {workload!r}")
