"""Set-up probe: import quasitrace and build what every study starts from.

Prints the CLOCK_MONOTONIC time at which that is done; the benchmark
subtracts the time at which it started this process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quasitrace import Sphere, manufactured_sphere, mixed_space  # noqa: E402

Sphere(1.0)
manufactured_sphere()
mixed_space("rt0")
mixed_space("bdm1")
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)
