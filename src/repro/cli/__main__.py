"""``python -m repro.cli``: run :func:`repro.cli.main` as a program."""

import os
import sys

from . import main

if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/filter (e.g. `repro stats ... | head`) closed the
        # pipe early; redirect stdout at the fd level so the interpreter's
        # shutdown flush does not traceback, and exit like a SIGPIPE death.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
