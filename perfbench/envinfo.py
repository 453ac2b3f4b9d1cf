"""Machine and environment record attached to every benchmark result.

Everything here is read-only: ``lscpu``, files under ``/sys`` and the
interpreter's own module metadata.
"""

from __future__ import annotations

import os
import platform
import subprocess

# One BLAS and OpenMP thread, set before numpy is imported.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pin_environment() -> None:
    """Set :data:`PINNED_ENV`; call before numpy is imported."""
    os.environ.update(PINNED_ENV)


def _run(argv, cwd=None):
    try:
        out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_facts() -> dict:
    facts = {"cpu_model": platform.processor() or None, "l2": None, "l3": None}
    text = _run(["lscpu"])
    if text:
        for line in text.splitlines():
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if key == "Model name":
                facts["cpu_model"] = value
            elif key == "L2 cache":
                facts["l2"] = value
            elif key == "L3 cache":
                facts["l3"] = value
    if facts["l2"] is None or facts["l3"] is None:
        base = "/sys/devices/system/cpu/cpu0/cache"
        try:
            for index in sorted(os.listdir(base)):
                with open(os.path.join(base, index, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, index, "size")) as fh:
                    size = fh.read().strip()
                if level in ("2", "3") and facts[f"l{level}"] is None:
                    facts[f"l{level}"] = size + " per core"
        except OSError:
            pass
    return facts


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def environment(root: str) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        **_cpu_facts(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "pinned_env": {var: os.environ.get(var) for var in PINNED_ENV},
        # a checkout without .git (an export) has no commit to report
        "git_commit": (_run(["git", "rev-parse", "HEAD"], cwd=root)
                       if os.path.isdir(os.path.join(root, ".git")) else None),
    }
