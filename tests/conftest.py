import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=ci` prints a @reproduce_failure blob with any
# Hypothesis failure; example counts and deadlines stay the defaults.
settings.register_profile("ci", print_blob=True)
