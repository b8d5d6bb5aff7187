"""Set-up probe: a fresh interpreter imports the CLI and loads the given configs."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gwadeform.cli import load_config  # noqa: E402

for path in sys.argv[1:]:
    load_config(path)
