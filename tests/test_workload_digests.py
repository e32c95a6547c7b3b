"""The benchmark workloads' outputs stay byte-identical.

For each workload of bench/workloads.py and seeds 1-3, the prefix
rounds run once through `dercert.cli.run_command`, with no timed loop
and no warm-up.  Every output is checked as the benchmark checks it,
and two hashes are compared with a table: the benchmark's verdict
digest of the checked records, and a sha256 over the newline-joined
fingerprints (each report without its timing, plus any scan evidence).

The table was recorded on Python 3.11.7, and CPython 3.10.13, 3.12.1 and
3.13.0 reproduce it; the outputs are exact and were the same under every
PYTHONHASHSEED tried.  A change that alters an output on purpose
updates the table and says which outputs changed.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402
from dercert import cli  # noqa: E402

# (workload, seed): (verdict digest, sha256 of the fingerprints)
EXPECTED = {
    ("image-bounded", 1): (
        "87d0bddea306421a4a23b2836b40cadb4c8af4b5fb19db5b8d6bb4de7833de60",
        "525e58b274776e08ee3cc1529aa8d1bd4b8019f1affa8e21344bbae9a3d2c9e4",
    ),
    ("image-bounded", 2): (
        "51351c362ab997e23511a313292ce6266efac8ceaa86f4b9892b130a0d7d726d",
        "c5a9ebf58af22a1b0cd6a1d6e37dde993bbbb1fee6bd8356fe7ac5aa4b85f3c3",
    ),
    ("image-bounded", 3): (
        "a9f67e4cb5b33367fe690c7d4a5b76a17a7df2fa2a3a686d2f16690878fe5fba",
        "027e72b90d3930ef4c877e41e0ac198f18d8410b41508ef93712d0f9256cdd1e",
    ),
    ("darboux-search", 1): (
        "5d51f6fc6567f2c6dd026c4b6fa5ea71071683c043dc204c33b4606932c2fe83",
        "d0678bed57f9dad75cfb22b517bea52b07e06e6f66866b5cde2ae48dd7a9c8f9",
    ),
    ("darboux-search", 2): (
        "4623e637b46c46f80b39c708c099a3e1e5ec19e3bbcd59a19782d977e2aa21bb",
        "69d477a2e65ba9607b5a13a86d8c6e003ad8fcdff808230e689eb23ae422e565",
    ),
    ("darboux-search", 3): (
        "fb5f7ccf6e574daa7c68c1066bb6193218a6769e8dec5f51550b9e56a5cd3ccd",
        "53b98391bec785b89bc0b773d9152017d4e8abe0330950efdfa2244b0dcf95b1",
    ),
    ("decide-mix", 1): (
        "68c4692e1e7a56aaf6a3cc4a5fc514dcd57735542a985fa6bcd087012c126e69",
        "227b807eb08f10df269e84d5425cc70d9d7bc49fdbd49891676d09820847aeaf",
    ),
    ("decide-mix", 2): (
        "24b436a042f6abb58fc64a7de7de149cf95c212756bf5579ef5a02544c847a94",
        "ed4dc2bf3752b462cbfb87256ad079f7891812e28ecca26786c3f1dacdbf23ad",
    ),
    ("decide-mix", 3): (
        "a5a14a3888193247cec0eb97bdca19d9acba457ce609c62b581cd747ff533484",
        "bb74a413052c83842ab06846e49b283f63fdb203c9e7af35f494a603611c82fc",
    ),
}


@pytest.mark.parametrize("name, seed", sorted(EXPECTED))
def test_prefix_outputs_match_the_table(name, seed, tmp_path):
    records, fingerprints = [], []
    for index in range(workloads.WORKLOADS[name].prefix_rounds):
        for req in workloads.generate_round(name, seed, index, str(tmp_path)):
            code, out, _ = run.execute(cli, req.argv)
            records.append(workloads.check(req, code, out))
            fingerprints.append(run.fingerprint(req, out))
    joined = hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()
    assert (run.verdict_digest(records), joined) == EXPECTED[name, seed]
