import atexit
import gc
import sys

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
