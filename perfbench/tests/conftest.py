import os
import sys

_BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(os.path.dirname(_BENCH), "src")

for path in (_BENCH, _SRC):
    if path not in sys.path:
        sys.path.insert(0, path)
