import atexit
import gc
import os
import sys

# Before numpy loads: OpenBLAS splits a dot of over 10,000 elements across
# threads, and the damping fit's last bits would follow the CPU count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The imports leave no garbage, so the collector pauses over them; freezing
# what is left at exit skips the last collections (see README, CLI).
collecting = gc.isenabled()
gc.disable()
from .cli import main  # noqa: E402

if collecting:
    gc.enable()
atexit.register(gc.freeze)

if __name__ == "__main__":
    sys.exit(main())
