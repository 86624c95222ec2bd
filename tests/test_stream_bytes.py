"""The benchmark's job streams keep their report bytes: the sha256 over the
``run_job`` text of ``streams.generate(workload, seed)``, seeds 1 to 10,
for each workload. bench/ is imported read-only, as bench/tests does."""

import hashlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import streams  # noqa: E402

STREAM_SHA256 = {
    "coords": "f2fffebe6138860fd5c962642fde081a55f0a480f7f4460b292a45ed647289f3",
    "identities": "e142536adfb271e78a42ebb26f28c250bbf878fe058be4b18fc22fb5a3d06ec5",
    "fields": "b3ce8fcae9032f02fcb9dfacf2a8188de049ae1343bad5ff8b0e4f2c2a47bdef",
}


def test_every_workload_is_pinned():
    assert sorted(STREAM_SHA256) == sorted(streams.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(STREAM_SHA256))
def test_stream_report_bytes(workload):
    digest = hashlib.sha256()
    for seed in range(1, 11):
        for job in streams.generate(workload, seed):
            text, _ = run.run_job(job)
            digest.update(text.encode())
    assert digest.hexdigest() == STREAM_SHA256[workload]
