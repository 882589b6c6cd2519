"""The CLI output contract, replayed from a committed corpus.

``golden/cli_digests.json`` maps each argv (joined by spaces) to the sha256 of
the stdout and of the stderr that ``gregory`` printed for it, and its exit
code.  Every case is replayed in-process through ``cli.main``; any byte that
changes fails the test of its subcommand.  ``golden/record.py`` lists the
cases and rewrites the corpus after a deliberate change.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).resolve().parent / "golden" / "record.py"
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def _corpus_by_command():
    groups = {}
    for key, expected in json.loads(record.DIGESTS.read_text()).items():
        argv = key.split()
        groups.setdefault(argv[0] if argv else "(none)", []).append((argv, expected))
    return groups


CORPUS = _corpus_by_command()


@pytest.mark.parametrize("command", sorted(CORPUS))
def test_cli_output_matches_recorded_digest(command):
    changed = [
        " ".join(argv) for argv, expected in CORPUS[command] if record.replay(argv) != expected
    ]
    assert changed == [], "%d of %d cases changed" % (len(changed), len(CORPUS[command]))


def test_every_listed_case_is_recorded():
    # A case added to record.cases() but never recorded would be replayed by
    # no test above.
    listed = {" ".join(argv) for argv in record.cases()}
    assert listed == set(json.loads(record.DIGESTS.read_text()))
