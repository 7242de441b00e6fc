"""Process entry point: ``python -m kickedchain`` and the installed ``kickedchain`` script.

Both run ``entry``, which runs ``cli.main`` and then freezes the garbage
collector, so the process ends without collecting and freeing every object
that numpy, PyYAML and the package made at import; exit handlers, the
flush of stdout/stderr and module cleanup still run.  In-process callers of
``cli.main`` are unaffected: the freeze happens only here, after ``main``
has returned.
"""

import gc

from .cli import main


def entry() -> int:
    """Run the command line and return its exit status; the process should exit next."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
