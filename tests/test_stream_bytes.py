"""The benchmark's job streams keep their report bytes: the sha256 over the
``run_job`` text of ``streams.generate(workload, seed)``, seeds 1 to 3, for
each workload. bench/ is imported read-only, as bench/tests does."""

import hashlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import streams  # noqa: E402

STREAM_SHA256 = {
    "coords": "510b10232ba7f81f497a48f9cbddc5ab2dec9965f5ee7573a86943985e2c3515",
    "identities": "f83ffb210adee69a8a37b3577a273e9eed02d8ebb01e540ab7dbacc158c22435",
    "fields": "d15cf9f38353122f8bfd00341caa212414fe836d53cf7da9d31724933a47286c",
}


def test_every_workload_is_pinned():
    assert sorted(STREAM_SHA256) == sorted(streams.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(STREAM_SHA256))
def test_stream_report_bytes(workload):
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for job in streams.generate(workload, seed):
            text, _ = run.run_job(job)
            digest.update(text.encode())
    assert digest.hexdigest() == STREAM_SHA256[workload]
