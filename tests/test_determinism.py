"""The numbers do not depend on how many threads the BLAS library uses.

No quadrature sum goes through BLAS: each is a single-threaded einsum or
float sum in a fixed order.  No fit goes through LAPACK either: the rate
fits are closed-form least-squares lines with correctly rounded sums, and
a test in ``test_cli`` runs every command with numpy's least-squares
solvers made to raise.  This test guards the sums.  Were a sum at
grid_m = 16000 handed to a BLAS dot product or matrix-vector product,
OpenBLAS would split it across its threads, each split summing in another
order, and the bits would move with the thread count.  The count is read
once, when the library loads, so each setting runs in its own interpreter.
The shot on the README config (grid_m = 2000) checks the IVP integrator,
whose stage sums are plain float sums.  On a single-core host both runs
may get one thread and agree trivially.
"""

import os
import subprocess
import sys
from pathlib import Path

import hslog

SNIPPET = """
import hashlib
import numpy as np
from hslog import bliss
from hslog.analysis import maximize_F, mountain_pass_gap
from hslog.functionals import J, LogParams
from hslog.orlicz import luxemburg_norm
from hslog.params import validate_params
from hslog.radial import make_grid
from hslog.shooting import shoot

from helpers import grid_energy, normalize, random_smooth_profile

ps = validate_params(2, 2, 2, 2)
lp = LogParams(1.0, 0.5)
grid = make_grid(16000, 3.0)
rng = np.random.default_rng(5)
for _ in range(20):
    u = normalize(random_smooth_profile(grid, rng), ps)
    print(J(u, lp, ps).hex(), grid_energy(u, lp, ps).hex(), luxemburg_norm(u, lp, ps).hex())
res = maximize_F(ps, lp, grid, eps_seeds=(1e-5,))
print(res.value.hex(), res.iterations, hashlib.sha256(res.profile.values.tobytes()).hexdigest())
for eps in (1e-3, 1e-4, 1e-5):
    mp = mountain_pass_gap(bliss.BubbleSpec(eps, 1.0, 0.2), lp, ps)
    print(mp.max_energy.hex(), mp.t_at_max.hex())
sol = shoot(lp, ps, (20.0, 50.0), make_grid(2000, 3.0))
print(sol.amplitude.hex(), hashlib.sha256(sol.profile.values.tobytes()).hexdigest(),
      sol.weak_residual.hex(), sol.ivp_evaluations)
"""


def _run_with_blas_threads(n: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n))
    src = str(Path(hslog.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SNIPPET], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


def test_one_and_two_blas_threads_give_the_same_bits():
    one, two = _run_with_blas_threads(1), _run_with_blas_threads(2)
    assert len(one.splitlines()) == 25
    assert one == two
