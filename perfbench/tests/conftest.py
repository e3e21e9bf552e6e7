import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import worker  # noqa: E402

signal.signal(signal.SIGALRM, worker._alarm)
