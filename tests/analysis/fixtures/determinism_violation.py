"""Wall-clock reads and global randomness in library code."""

import datetime as _dt
import random
import time
from datetime import datetime
from time import time as wallclock  # line 7: smuggled clock


def stamp() -> float:
    return time.time()  # line 11


def label() -> str:
    return datetime.now().isoformat()  # line 15


def label_qualified() -> str:
    return _dt.datetime.now().isoformat()  # line 19


def jitter() -> float:
    return random.random()  # line 23


def reference() -> float:
    clock = time.perf_counter  # line 27: a clock passed by reference
    return clock()
