import hashlib
import os
import subprocess
import sys

import pytest

import extalg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo, digest", [
    ("01_root_systems_and_orders.py",
     "1abf014126b8898443fcb6640bbc58681c3ca07a9a4979674b22cae07bbdb556"),
    ("02_tensor_products_from_polytopes.py",
     "18f97f75958eb84a83de36cf8e3db93067e222365afa593c5ac4ae9af3c0e857"),
    ("03_kostant_certificates.py",
     "9fa3a03397331164dc7f9beb808931a2a549f9b57d3d4c6a8c974702a26ea643"),
    ("04_generalized_exponents.py",
     "12e4b741aabb71344aec12cf93a5a975cf3c7fb2712a88c2eee44e264252044c"),
    ("05_exterior_algebra.py",
     "785fd59366729359a383e0b9364f6be4fb985bbf527a59eb6c088d0e7ffe3f33"),
    ("06_minuscule_recurrence.py",
     "7506b901b5ac3069882dd108e98cd7ce57c2cb859b899f43212a2e7ef9d129f6"),
])
def test_demo_stdout_pinned(demo, digest):
    src = os.path.dirname(os.path.dirname(os.path.abspath(extalg.__file__)))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=300)
    assert proc.returncode == 0 and hashlib.sha256(proc.stdout).hexdigest() == digest
