"""The perf ledger: four fixed workloads through the whole metering ->
filtering -> analysis pipeline, one fixed-schema result.

See ``ledger/README.md``.  The driver's command line cannot set
``PYTHONPATH``, so the repository's ``src`` directory is put on the
path here, next to this package.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
