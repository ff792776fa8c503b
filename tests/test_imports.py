"""What importing the package costs a command that does not need it all."""

import json
import subprocess
import sys
from pathlib import Path

import hwassure

# Loaded only by the commands that start processes: a parallel attack batch
# and an external DIMACS solver.
OFF_PATH_MODULES = ("concurrent.futures", "multiprocessing", "subprocess")


def test_import_loads_no_process_modules():
    # Compared against the modules already loaded before the import, since
    # the interpreter's own start-up differs between installations.
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import hwassure, hwassure.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(hwassure.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, check=True, timeout=120)
    added = json.loads(done.stdout)
    assert "hwassure.cli" in added
    assert [m for m in OFF_PATH_MODULES if m in added] == []
