"""Job catalogues, seeded rounds, execution and output checking.

Every workload is a finite catalogue of jobs split into strata. One round
draws one job from each stratum and shuffles them, so every round has the
same cost profile whatever the seed, and every job any seed can draw has a
reference digest recorded in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("products", "closed_forms", "verify")

# Fixed seed for the parts of the catalogue that are random by construction
# (fold sequences, poset files). Changing it invalidates reference.json.
CATALOGUE_SEED = 20251017


@dataclass(frozen=True)
class Job:
    """One call into the library.

    ``kind`` names the entry point (a ``diamonds`` function,
    ``djsw_recursion``, or ``cli`` for an in-process ``cli.main`` run) and
    ``args`` its arguments; fold sequences are written ``"3,1,2"`` and
    ``cli`` arguments are the argv list. ``folds`` is the sorted fold
    multiset the job's descent polynomials depend on, or None.
    """

    kind: str
    args: tuple
    folds: Optional[tuple] = None

    @property
    def key(self) -> str:
        return " ".join([self.kind, *map(str, self.args)])


def _job(kind: str, *args, folds=None) -> Job:
    return Job(kind, args, None if folds is None else tuple(sorted(folds)))


def _folds_text(folds) -> str:
    return ",".join(map(str, folds))


# --- catalogues ----------------------------------------------------------
#
# Strata are cost classes: the jobs in one stratum take about the same time,
# so every round, and every run, has the same cost profile whatever the
# seed. Each workload also has enough jobs in its slowest classes that the
# 11th-largest job time falls inside a class, not on the edge between two.


def _products_strata() -> list[list[Job]]:
    def apr(lo, hi):
        return [_job("apr_product", t) for t in range(lo, hi + 1, 5)]

    def djsw(lo, hi):
        return [_job("djsw_product", d, t, folds=(d,)) for d in range(2, 6)
                for t in range(lo, hi + 1, 5)]

    def schmidt(d, lo, hi):
        return [_job("schmidt_product", d, t, folds=(d,)) for t in range(lo, hi + 1, 5)]

    def rec(lo, hi):
        return [_job("djsw_recursion", d, folds=(d,)) for d in range(lo, hi + 1)]

    # Four slots per round for djsw_recursion(22), the slowest job, so the
    # 11th-largest time falls inside that class. The median sits in the
    # ~0.15 s class, which is drawn twice per round because single job times
    # vary by a quarter even at a steady host speed.
    median_class = [
        apr(150, 160), djsw(160, 175), schmidt(5, 80, 90), schmidt(4, 90, 100),
        schmidt(3, 105, 115), schmidt(2, 120, 130), rec(15, 15),
    ]
    return [
        djsw(80, 95), djsw(80, 95), djsw(100, 115), djsw(120, 135),
        rec(12, 14), rec(12, 14), schmidt(2, 80, 90),
        *median_class, *median_class,
        apr(250, 265), rec(16, 20), schmidt(2, 185, 200), apr(345, 360), apr(385, 400),
        rec(22, 22), rec(22, 22), rec(22, 22), rec(22, 22),
    ]


def _random_folds(rng: random.Random, count: int, lo: int, hi: int,
                  big: Optional[int] = None, repeat: bool = False) -> list[tuple]:
    """Distinct fold sequences of length 2 to 4 with entries in lo..hi, plus
    one entry ``big`` (twice when ``repeat``) if given."""
    out = []
    while len(out) < count:
        folds = [rng.randint(lo, hi) for _ in range(rng.randint(2, 4))]
        if big is not None:
            folds[0] = big
            if repeat:
                folds[-1] = big
            rng.shuffle(folds)
        if tuple(folds) not in out:
            out.append(tuple(folds))
    return out


def _closed_forms_strata() -> list[list[Job]]:
    rng = random.Random(CATALOGUE_SEED)

    def sigma(ds):
        return [_job("sigma_closed", d, m, t, folds=(d,))
                for d in ds for m in range(1, 5) for t in range(10, 31, 4)]

    def multi(seqs):
        return [_job("sigma_multifold_closed", _folds_text(f), t, folds=f)
                for f in seqs for t in range(10, 23, 4)]

    def schmidt(ds):
        return [_job("schmidt_closed", d, m, t, folds=(d,))
                for d in ds for m in (2, 4, 6, 8) for t in (16, 24, 32, 40)]

    # E_9 costs about 30x E_8, E_8 about 8x E_7: the d <= 7, d = 8 and d = 9
    # jobs are the cost classes, with the median inside the d = 8 class.
    # Sequences with a repeated 8 are the case where one E_d could serve
    # several blocks.
    multi8 = multi(_random_folds(rng, 6, 1, 7, big=8))
    return [
        sigma((1, 2, 3)), sigma((4, 5, 6, 7)),
        multi(_random_folds(rng, 12, 1, 7)), schmidt((1, 2, 3, 4, 5, 6, 7)),
        sigma((8,)), sigma((8,)), schmidt((8,)), multi8, multi8,
        multi(_random_folds(rng, 6, 1, 7, big=8, repeat=True)),
        sigma((9,)), schmidt((9,)), multi(_random_folds(rng, 6, 1, 7, big=9)),
    ]


POSET_FILES = 16


def _verify_strata() -> list[list[Job]]:
    rng = random.Random(CATALOGUE_SEED + 1)

    def cli(*argv, folds=None):
        return _job("cli", *argv, "--json", folds=folds)

    def stanley(counts, sizes):
        return [cli("verify", "stanley", "--count", str(c), "--max-size", str(s),
                    "--trunc", str(t), "--seed", str(seed))
                for c in counts for s in sizes for t in (6, 8) for seed in range(1, 7)]

    def main(dm):
        return [cli("verify", "main", "--d", str(d), "--M", str(m), "--trunc", str(t),
                    folds=(d,))
                for d, m in dm for t in range(6, 15, 2)]

    def multifold(seqs):
        return [cli("verify", "multifold", "--folds", _folds_text(f), "--trunc", str(t),
                    folds=f)
                for f in seqs for t in (6, 8, 10)]

    def schmidt(dmt):
        return [cli("verify", "schmidt", "--d", str(d), "--M", str(m), "--trunc", str(t),
                    folds=(d,))
                for d, m, t in dmt]

    def apr(ts):
        return [cli("verify", "apr", "--trunc", str(t)) for t in ts]

    def djsw(dt):
        return [cli("verify", "djsw-product", "--d", str(d), "--trunc", str(t), folds=(d,))
                for d, t in dt]

    def theorem1(ds):
        return [cli("verify", "theorem1", "--dmax", str(d)) for d in ds]

    def ppartition(*extra):
        return [cli("ppartition", poset_file_name(k), "--trunc", str(t), *extra)
                for k in range(POSET_FILES) for t in (6, 7, 8)]

    fold_seqs = _random_folds(rng, 12, 1, 4)
    return [
        # about 3-10 ms
        main(((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))),
        multifold(fold_seqs[:6]), multifold(fold_seqs[6:]),
        schmidt([(1, m, t) for m in (3, 5, 8) for t in (8, 10)]),
        theorem1((5, 6, 7)),
        # about 10-40 ms, the median class
        ppartition(), ppartition("--oracle"),
        stanley((20,), (6,)),
        main(((3, 2), (4, 1))),
        djsw([(1, 12), (1, 14), (2, 12), (3, 10)]),
        apr(range(11, 14)),
        schmidt([(2, 3, 12), (2, 5, 10), (2, 8, 8), (2, 10, 8)]),
        # about 50-200 ms
        stanley((40, 60), (6, 7)),
        apr(range(15, 19)),
        djsw([(2, 16), (2, 18), (3, 14), (4, 12)]),
        schmidt([(3, m, 10) for m in (4, 5, 6)]),
        # about 250-350 ms: the oracles' exponential end and E_9
        apr((19, 20)) + djsw([(3, 16), (4, 14)]) + theorem1((9,)),
        apr((19, 20)) + djsw([(3, 16), (4, 14)]) + theorem1((9,)),
    ]


STRATA = {
    "products": _products_strata,
    "closed_forms": _closed_forms_strata,
    "verify": _verify_strata,
}


def catalogue(workload: str) -> list[Job]:
    return list(dict.fromkeys(job for stratum in STRATA[workload]() for job in stratum))


class RoundSource:
    """Yields seeded rounds: one job per stratum, in shuffled order."""

    def __init__(self, workload: str, seed: int) -> None:
        self._strata = STRATA[workload]()
        self._rng = random.Random(f"{workload}:{seed}")

    def next_round(self) -> list[Job]:
        jobs = [self._rng.choice(stratum) for stratum in self._strata]
        self._rng.shuffle(jobs)
        return jobs


def repeat_share(jobs: list[Job]) -> float:
    """Share of jobs whose d or fold multiset equals an earlier job's."""
    seen = set()
    repeats = 0
    for job in jobs:
        if job.folds is None:
            continue
        if job.folds in seen:
            repeats += 1
        seen.add(job.folds)
    return repeats / len(jobs) if jobs else 0.0


# --- poset files for `ppartition` -----------------------------------------


def poset_file_name(k: int) -> str:
    return f"poset_{k:02d}.txt"


def _count_linear_extensions(size: int, lowers: list[set[int]]) -> int:
    # Dynamic programme over down-sets; independent of the library's
    # Jordan-Holder enumeration, used only to keep the files cheap.
    ways = {0: 1}
    for _ in range(size):
        nxt: dict[int, int] = {}
        for placed, n in ways.items():
            for k in range(1, size + 1):
                bit = 1 << k
                if placed & bit or any(not placed & (1 << j) for j in lowers[k]):
                    continue
                nxt[placed | bit] = nxt.get(placed | bit, 0) + n
        ways = nxt
    return sum(ways.values())


def poset_file_texts() -> list[str]:
    """Deterministic naturally labelled posets of 8 to 12 elements with at
    most 1500 linear extensions, in the library's text format."""
    rng = random.Random(CATALOGUE_SEED + 2)
    texts = []
    while len(texts) < POSET_FILES:
        size = rng.randint(8, 12)
        density = rng.choice((0.25, 0.35, 0.5))
        covers = [
            (j, k) for j in range(1, size + 1) for k in range(j + 1, size + 1)
            if rng.random() < density
        ]
        lowers = [set() for _ in range(size + 1)]
        for j, k in covers:
            lowers[k].add(j)
        if not 20 <= _count_linear_extensions(size, lowers) <= 1500:
            continue
        folds = sorted(rng.sample(range(1, size + 1), rng.randint(1, size // 2)))
        lines = [f"elements {size}"]
        lines += [f"cover {j} {k}" for j, k in covers]
        lines.append("assign a " + " ".join(map(str, folds)))
        texts.append("\n".join(lines) + "\n")
    return texts


def write_poset_files(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for k, text in enumerate(poset_file_texts()):
        (directory / poset_file_name(k)).write_text(text, encoding="utf-8")


# --- execution and checking ------------------------------------------------


class Runner:
    """Runs jobs against the imported library.

    Entry points are looked up on their modules at call time, so wrappers
    installed by the tracer or the perturbation check take effect.
    """

    def __init__(self, lib, work_dir: Path) -> None:
        self._lib = lib
        self._work_dir = work_dir

    def call(self, job: Job):
        """Run the job and return its raw output; this is the timed part."""
        lib = self._lib
        if job.kind == "cli":
            argv = [
                str(self._work_dir / a) if a.startswith("poset_") else a for a in job.args
            ]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        if job.kind == "djsw_recursion":
            return lib.permstat.djsw_recursion(*job.args)
        if job.kind == "sigma_multifold_closed":
            folds, truncation = job.args
            spec = lib.poset.DiamondSpec(tuple(int(f) for f in folds.split(",")))
            return lib.diamonds.sigma_multifold_closed(spec, truncation)
        return getattr(lib.diamonds, job.kind)(*job.args)


def canonical(job: Job, output) -> tuple[object, Optional[str]]:
    """The output as canonical JSON data, and why it fails on its own terms
    (a nonzero exit or a report that does not pass), if it does."""
    if job.kind == "cli":
        code, out, err = output
        if code != 0:
            return None, f"exit {code}: {(err or out).strip()[:200]}"
        data = json.loads(out)
        if data.get("status", "pass") != "pass" or data.get("match", True) is not True:
            return data, "report does not pass"
        return data, None
    if isinstance(output, list):
        return {"coefficients": [str(c) for c in output]}, None
    terms = sorted([int(m[0]), int(m[1]), str(c)] for m, c in output.terms.items())
    truncation = getattr(output, "truncation", None)
    return {"truncation": truncation, "terms": terms}, None


def digest(data: object) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def check(job: Job, output, reference: dict) -> Optional[str]:
    """None when the output matches the reference, else the reason."""
    data, problem = canonical(job, output)
    if problem:
        return problem
    expected = reference.get(job.key)
    if expected is None:
        return "no reference recorded for this job"
    if digest(data) != expected:
        return "output differs from the reference"
    return None
