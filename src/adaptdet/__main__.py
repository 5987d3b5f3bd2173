"""``python -m adaptdet``: the same command line as the ``adaptdet`` script."""

import sys

from .cli import main

sys.exit(main())
