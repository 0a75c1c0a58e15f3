"""``python -m fuzzpole``: the command-line interface of :mod:`fuzzpole.cli`."""

import sys

from .cli import main

sys.exit(main())
