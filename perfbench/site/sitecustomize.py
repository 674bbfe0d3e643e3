"""Machine-speed sampling inside the CLI processes the benchmark times.

Every interpreter the benchmark starts has this directory on PYTHONPATH.
Unless CYCLOPERM_BENCH_SPEED_FILE names a file this does nothing; then a
speed.Sampler runs while the process lives and, at exit, the file receives
the time the samples took and the samples themselves (see speed.py).
"""

import os

_path = os.environ.get("CYCLOPERM_BENCH_SPEED_FILE")
if _path:
    import atexit
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import speed

    _sampler = speed.Sampler()
    _pid = os.getpid()

    def _write() -> None:
        if os.getpid() != _pid:  # a forked pool worker
            return
        _sampler.stop()
        with open(_path, "w") as fh:
            fh.write(" ".join(map(repr, [_sampler.spent, *_sampler.samples])))

    atexit.register(_write)
