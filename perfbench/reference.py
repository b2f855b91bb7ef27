"""Reference figures quoted in perfbench/README.md; they gate nothing.

    python3 perfbench/reference.py

Prints the start-up cost of a fresh process with and without the
package's imports, the per-step time of sorption over an N-sweep, and
the SHA-256 of each workload's final (u, varsigma) as one round of
perfbench/scenario.py computes it.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))


def fresh_process_s(code: str, n: int = 15) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sorption_step_us(N: int, steps: int) -> float:
    from viscodiff import config, solver
    cfg = config.parse_config(
        f'preset = "sorption"\nmesh.N = {N}\ntime.T_end = {steps * 5e-4!r}\n')
    mesh = config.build_mesh_from(cfg)
    phys = config.build_physical(cfg)
    args = (config.build_initial(cfg, mesh, phys), mesh, config.build_model(cfg),
            config.build_boundary(cfg), config.build_solver_config(cfg))
    t0 = time.perf_counter()
    solver.run(*args)
    return 1e6 * (time.perf_counter() - t0) / steps


def main() -> None:
    bare = fresh_process_s("pass")
    full = fresh_process_s(f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                           "import viscodiff")
    print(f"fresh process: {bare:.3f} s bare, {full:.3f} s with imports "
          f"({full - bare:.3f} s for numpy, scipy and viscodiff)")
    sorption_step_us(64, 100)  # warm-up
    for N in (64, 256, 1024, 8192, 65536):
        steps = 2000 if N <= 1024 else 200
        print(f"sorption N={N}: {sorption_step_us(N, steps):.0f} us/step "
              f"over {steps} steps")
    for w in ("sorption", "front-large-n", "eps-scan", "homogenize"):
        out = subprocess.run([sys.executable, str(HERE / "scenario.py"), w,
                              str(HERE / "out" / w)], check=True,
                             capture_output=True, text=True).stdout
        print(f"{w}: sha256 {json.loads(out)['sha256']}")


if __name__ == "__main__":
    main()
