import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (str(HERE), str(HERE.parent / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
