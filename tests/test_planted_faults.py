"""Planted faults: a copy of the package with one fault planted must
fail the verify checks that are meant to catch it.

Each fault is a textual edit of one source line, made in a copy of the
package under a temporary directory and run in its own process, so no
memoised result of the faulty code reaches other tests.
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import subdirect

PACKAGE = pathlib.Path(subdirect.__file__).resolve().parent

# fault name -> (module, the line as written, the line with the fault,
# the verify selection, the checks its FAIL lines name)
FAULTS = {
    # Without the conjugation step, the commutator walk closes only the
    # commutators of generator pairs, which lie in [X, Y] but need not
    # generate it: A4 gets a derived subgroup of order 2.
    "commutator-without-normalisers": (
        "groups.py",
        "    elements, gens = _closure(G, seed, normalisers=conj)\n",
        "    elements, gens = _closure(G, seed)\n",
        "A4",
        {"normal-product-commutator", "abelianization-order",
         "commutator-projection", "kernel-commutator-chain",
         "side-symmetry", "oracle-agreement", "sufficiency-soundness",
         "obstruction-soundness", "twisted-kernel-identity",
         "star-preservation", "star-kernel-sections", "report-methods",
         "raw-enumerator-agreement", "restriction-kernel",
         "fiber-uniformity", "coefficient-stabilization",
         "record-roundtrip"},
    ),
}


def _planted_verify(tmp_path, module, line, fault, selection):
    copy = tmp_path / "subdirect"
    shutil.copytree(PACKAGE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / module).read_text()
    assert source.count(line) == 1, "the planted line moved"
    (copy / module).write_text(source.replace(line, fault))
    return subprocess.run(
        [sys.executable, "-m", "subdirect.cli", "verify", "--G", selection],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(tmp_path)))


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_planted_fault_fails_its_checks(tmp_path, name):
    module, line, fault, selection, caught = FAULTS[name]
    run = _planted_verify(tmp_path, module, line, fault, selection)
    assert run.returncode == 1, run.stderr
    failed = set(re.findall(r"^(\S+): FAIL ", run.stdout, re.MULTILINE))
    assert failed == caught
    assert run.stdout.splitlines()[-1].startswith(
        f"FAILED {len(caught)} of 28 checks")
