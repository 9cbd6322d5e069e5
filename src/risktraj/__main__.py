import os
import sys

# Before numpy loads: OpenBLAS splits a dot of over 10,000 elements across
# threads, and the damping fit's last bits would follow the CPU count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
