"""Put the benchmark's modules and the program on ``sys.path``, as
``run.py`` does, and pin the environment the same way.

Imported first by every self-test.  It is deliberately not a
``conftest.py``: pytest loads those while collecting the repository's own
test suite, and this must not touch that suite's environment.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from hostenv import pin_environment  # noqa: E402

pin_environment(os.environ)
