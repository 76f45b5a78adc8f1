"""tools/preset_digest.py digests every preset the CLI runs."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import preset_digest  # noqa: E402
from iasim import cli  # noqa: E402


def test_digest_covers_every_cli_preset():
    # Runs no preset.  A preset added to the CLI but not to the tool's
    # list and its record would skip the digest check.
    recorded = json.loads(preset_digest.RECORD.read_text())["sha256"]
    assert len(set(preset_digest.PRESETS)) == len(preset_digest.PRESETS)
    assert set(preset_digest.PRESETS) == set(recorded) == set(cli._PRESETS)
