"""The demos print, and write, exactly what they did when these digests
were taken.

Each demo runs in a subprocess from a copy in a temporary directory, so the
PBMs that ``spacetime_diagrams`` writes land in that directory's
``output/`` and not in the repository.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_DIGESTS = {
    "ballistic_classification":
        "6da04abbf482beb0fdcd16180729a642dcb6cf6a564cf506254c87e2bae52b57",
    "subshift_tour":
        "935db459528dff8745aa01c2156cffe9917e1717328c04940145e36a69c58a37",
    "turing_emulation":
        "795f5ae42de9f8841a9848bcf8ef52454493a4bf2914f2b5a93e8832362ff782",
    "spacetime_diagrams":
        "0cc5520debea34c47467fbbf1de0c4c595cc39112daf1b063fc140edbac30434",
    "random_walk":
        "0c6258ece8b3423785083e99216a5d6f769b311e410bc3302c7e59046815f210",
}

OUTPUT_DIGESTS = {
    "spacetime_diagrams": {
        "eca184.pbm":
            "7ee3c2fd9b0b68f7bf8bb22c3e64b2ad5f7729035866b7c61db090a6d0b743ec",
        "eca184-defects.pbm":
            "f240792f8ac34ad8b362c1de78f0e1f6af17d84ac536a56693ac7323eba08605",
        "eca54.pbm":
            "a8479d17825e6e1ecae35e4193c0b3cd5066eea2529d956ae58e0a7e00a815a9",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("demo", sorted(STDOUT_DIGESTS))
def test_demo_output_is_pinned(demo, tmp_path):
    script = shutil.copy(ROOT / "demos" / f"{demo}.py", tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert _sha256(run.stdout) == STDOUT_DIGESTS[demo], run.stdout.decode()
    written = {name: _sha256((tmp_path / "output" / name).read_bytes())
               for name in OUTPUT_DIGESTS.get(demo, {})}
    assert written == OUTPUT_DIGESTS.get(demo, {})
