"""perflab's own tests: ``pytest perflab/tests`` (not part of tier-1)."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
