"""Workload definitions and the output checks that decide failure and correctness.

Every workload is the README config (p = alpha0 = alpha1 = theta = 2, tau = 1,
beta = 1/2, shoot_bracket = 20,50) with a few keys overridden.  Only
``orlicz-m16000`` consumes the benchmark seed, through the config's ``seed``
key, which draws its 100 random profiles; the other three workloads are
deterministic and give the same inputs for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

README_CONFIG = {
    "p": "2",
    "alpha0": "2",
    "alpha1": "2",
    "theta": "2",
    "tau": "1.0",
    "beta": "0.5",
    "grid_m": "2000",
    "grid_gamma": "3.0",
    "epsilon_list": "1e-2,3e-3,1e-3,3e-4,1e-4,1e-5",
    "mp_epsilon_list": "1e-3,1e-4,1e-5",
    "beta_list": "1,2,4,8,16",
    "shoot_bracket": "20,50",
}

# `verify --suite all` verdicts on the README config.  ncs-concentration-level
# is the documented 12a obstruction (README, acceptance criterion 12a): it is
# expected red, so it is neither hidden nor counted as a failed invocation.
EXPECTED_VERDICTS = {
    "parameter-identities": True,
    "extremal-integral-identity": True,
    "dirichlet-deviation-rate": True,
    "lpstar-deviation-rate": True,
    "beta-sweep-monotone": True,
    "beta-sweep-final-gap": True,
    "mp-gap-positive": True,
    "ncs-concentration-level": False,
    "gamma-convexity-a6-b1": True,
    "gamma-convexity-a7.5-b0.5": True,
    "luxemburg-embedding": True,
}
EXPECTED_RED = sorted(k for k, v in EXPECTED_VERDICTS.items() if not v)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    ``report`` is the file whose presence tells a scientific verdict (exit 2
    with the report written) from a NumericalError (exit 2 without it).
    ``rows`` maps each file the command must leave behind to its data-row
    count, given the workload's config.
    """

    argv: tuple[str, ...]
    expected_rc: int
    report: str
    rows: dict


@dataclass(frozen=True)
class Workload:
    """``probe`` is (elements, rounds) for the speed probe in run.py.  Its
    arrays are as long as those the workload's hot loop works on, so it meets
    the same cache and memory contention; the rounds make it take about
    0.1 s on the 2-vCPU Xeon the bounds were set on."""

    name: str
    overrides: dict
    uses_seed: bool
    commands: tuple[Command, ...]
    probe: tuple[int, int]

    def config(self, seed: int) -> dict:
        cfg = dict(README_CONFIG, **self.overrides)
        if self.uses_seed:
            cfg["seed"] = str(seed)
        return cfg


_MP = Command(("mp-gap",), 0, "mp_gap.csv", {"mp_gap.csv": 3})
_ORLICZ = Command(("orlicz",), 0, "orlicz.csv", {"orlicz.csv": 106})
_SWEEP = Command(("sweep-beta",), 0, "beta_sweep.csv", {"beta_sweep.csv": 5})
# exit 2 is the verdict: one expected-red check
_VERIFY = Command(("verify", "--suite", "all"), 2, "verify_all.csv",
                  {"verify_all.csv": len(EXPECTED_VERDICTS), "beta_sweep.csv": 5,
                   "mp_gap.csv": 3, "ncs.csv": 6, "orlicz.csv": 106})
_SHOOT = Command(("shoot",), 0, "solution.csv", {"solution.csv": 2000, "shoot_meta.txt": 8})

# Why each workload (BENCHMARK.json says the same): each keeps one cost
# regime apart, so a later change to one layer moves one workload and leaves
# the others as they were.
WORKLOADS = {
    w.name: w
    for w in (
        # the energy path: 88% of the pass in energy_I, BLAS-threaded dot
        # products; never reaches orlicz, the ascent or shooting
        # (energy_I works on 16 Gauss points x 16000 nodes at once)
        Workload("mp-m16000", {"grid_m": "16000"}, False, (_MP,), (16 * 16000, 13)),
        # the modular path: ~46 J calls per Luxemburg norm on 100 seeded random
        # profiles; never reaches energy_I or shooting
        Workload("orlicz-m16000", {"grid_m": "16000"}, True, (_ORLICZ,), (16000, 460)),
        # the projected ascent: maximize_F for 5 betas x 6 seeds is the whole pass
        Workload("sweep-m16000", {"grid_m": "16000"}, False, (_SWEEP,), (16000, 460)),
        # what users run: many short calls on small arrays, and the only IVP work
        Workload("readme-m2000", {}, False, (_VERIFY, _SHOOT), (2000, 2600)),
    )
}


# --- output checks -------------------------------------------------------------


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _check_mp_gap(rows, cfg):
    eps = [float(r[0]) for r in rows]
    want = [float(v) for v in cfg["mp_epsilon_list"].split(",")]
    if eps != want:
        yield f"epsilon column {eps} != config {want}"
    if len({r[2] for r in rows}) != 1:
        yield "threshold differs between rows"
    for r in rows:
        max_i, threshold, gap = map(float, r[1:4])
        if not _close(gap, threshold - max_i, 1e-8):
            yield f"gap {gap} != threshold - max_I at eps={r[0]}"
        if gap <= 0:
            yield f"non-positive level gap at eps={r[0]}"


def _check_orlicz(rows, cfg):
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        yield "profile_id column is not 0..n-1"
    for r in rows:
        lux, diri, ratio = map(float, r[1:4])
        if not (lux > 0 and diri > 0 and _close(ratio, lux / diri, 1e-8)):
            yield f"profile {r[0]}: inconsistent luxemburg/dirichlet/ratio"
        if r[4] != "true":
            yield f"profile {r[0]}: embedding check failed"


def _check_beta_sweep(rows, cfg):
    betas = [float(r[0]) for r in rows]
    want = [float(v) for v in cfg["beta_list"].split(",")]
    if betas != want:
        yield f"beta column {betas} != config {want}"
    if any(float(r[1]) <= 0 for r in rows):
        yield "non-positive F_hat"


def _check_verify(rows, cfg):
    got = {r[0]: r[1] == "true" for r in rows}
    if got != EXPECTED_VERDICTS:
        changed = sorted(k for k in set(got) | set(EXPECTED_VERDICTS)
                         if got.get(k) != EXPECTED_VERDICTS.get(k))
        yield f"verify verdicts differ from the expected ones on: {', '.join(changed)}"


def _check_solution(rows, cfg):
    r_last, u_last = map(float, rows[-1])
    if r_last != 1.0 or u_last != 0.0:
        yield f"solution does not end at (1, 0): ({r_last}, {u_last})"
    if any(float(a) >= float(b) for (a, _), (b, _) in zip(rows, rows[1:])):
        yield "solution nodes are not increasing"


_SEMANTIC = {
    "mp_gap.csv": _check_mp_gap,
    "orlicz.csv": _check_orlicz,
    "beta_sweep.csv": _check_beta_sweep,
    "verify_all.csv": _check_verify,
    "solution.csv": _check_solution,
}


def _meta_rows(text: str) -> list[list[str]]:
    return [[part.strip() for part in ln.split("=", 1)] for ln in text.splitlines()]


def malformed(name: str, text: str, expected_rows: int) -> str | None:
    """A failure: wrong row count or a non-finite number in an output file."""
    rows = _meta_rows(text) if name.endswith(".txt") else _table(text)[1]
    if len(rows) != expected_rows:
        return f"{name}: {len(rows)} rows, expected {expected_rows}"
    for row in rows:
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue
            if not math.isfinite(value):
                return f"{name}: non-finite value {field!r}"
    return None


def semantic_problems(name: str, text: str, cfg: dict) -> list[str]:
    """Correctness checks that hold for any faithful implementation.

    They test internal consistency and verdicts, not the last digits, so a
    later change that moves results within a correctness fix does not need a
    new reference.
    """
    if name == "shoot_meta.txt":
        meta = dict(_meta_rows(text))
        problems = []
        if not float(meta["boundary_residual"]) < 1e-8:
            problems.append(f"shoot boundary residual {meta['boundary_residual']} >= shoot_tol")
        if meta["positive_inside"] != "true":
            problems.append("shoot solution is not positive inside")
        return problems
    check = _SEMANTIC.get(name)
    if check is None:
        return []
    return [f"{name}: {p}" for p in check(_table(text)[1], cfg)]
