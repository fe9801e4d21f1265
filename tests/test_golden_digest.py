"""Pinned digests of `repart simulate` output over a fixed matrix.

Each case runs the CLI twice in process, once for the JSON report with
`--events` and once for the CSV report, and compares the sha256 of the
JSON stdout, the CSV stdout and the event file with the digests below.
A refactor that keeps reports byte-identical keeps this test green; a
change that alters any report must update the digests on purpose.

The matrix: every workload kind x k in {1, 2, 3} x l in {3, 5} x both
algorithms, 60 requests from seed 5, with `--opt` where n <= 8. At k = 1
every cross-cluster request resets without a reprocessed remap.
"""

import hashlib
import itertools

import pytest

import repart.cli as cli
from repart.engine import ALGORITHMS
from repart.workloads import KINDS

LENGTH = 60
SEED = 5

CASES = list(itertools.product(KINDS, (1, 2, 3), (3, 5), ALGORITHMS))

# (json stdout, csv stdout, --events file), sha256 hex, per case
DIGESTS = {
    ("uniform-random", 1, 3, "comp-min"): (
        "9f4dbb49f8d57e73c7e2f34107447f5da9a475ba70d553c10245cf7d904ab729",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "80764c2eab47bbe6a91fa32cc507e8498ca4930b1b994a977d931e2ab55925bb",
    ),
    ("uniform-random", 1, 3, "comp-any"): (
        "5da7b74bdec787f7bdbda6df7d88fa917d5c79e383efe41acc5a72eec5de3f9c",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "80764c2eab47bbe6a91fa32cc507e8498ca4930b1b994a977d931e2ab55925bb",
    ),
    ("uniform-random", 1, 5, "comp-min"): (
        "7619d5bd56866b8fe855c879080e653857504a120b9fa5e78b36925eb855ea2a",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "3c1ebd1067877de3171785573db99d5b41f4e972a9f9fe41f4ab24f3a5dd7cbb",
    ),
    ("uniform-random", 1, 5, "comp-any"): (
        "16a92ca7142f5343f6efd01ff5382e6f53a8d3138a64beaf5cbc8cb42a555931",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "3c1ebd1067877de3171785573db99d5b41f4e972a9f9fe41f4ab24f3a5dd7cbb",
    ),
    ("uniform-random", 2, 3, "comp-min"): (
        "821b0ad26d169c9c0229f8609cf2044337b5732bed4ddb530793a346609fd30b",
        "e210c5af5e584b6bda982774a56652510e6e3971bd49ab6bd8e3b5ac1afa56d3",
        "df8353ed57e6219fc64587c7257f964c596e38607190d8b0754b8feb00bdd8da",
    ),
    ("uniform-random", 2, 3, "comp-any"): (
        "6ff097b306d553e4fbc1e28e740e0f387a0e8c68d9a9c3c3650f0d9e3c3865b3",
        "e210c5af5e584b6bda982774a56652510e6e3971bd49ab6bd8e3b5ac1afa56d3",
        "df8353ed57e6219fc64587c7257f964c596e38607190d8b0754b8feb00bdd8da",
    ),
    ("uniform-random", 2, 5, "comp-min"): (
        "3ca78734d546430ba4aa65ca34f51b7354816bc86c0c661845ebb3393a890c3f",
        "0573bf76f98aa3875dd0b24487b26b9d0789402fa8b6249c36b2da15f1d27dc5",
        "2877db2a49104d162d05006de1369b65789abd26287c687fe1045017efb39a47",
    ),
    ("uniform-random", 2, 5, "comp-any"): (
        "3d8a4527c1e6ffcc5f2d4c039ea3dbcd6712b0ac27ab971b3e85934e4285751a",
        "0573bf76f98aa3875dd0b24487b26b9d0789402fa8b6249c36b2da15f1d27dc5",
        "2877db2a49104d162d05006de1369b65789abd26287c687fe1045017efb39a47",
    ),
    ("uniform-random", 3, 3, "comp-min"): (
        "f3ca4426d33689b0bfe79c9e7059ac1ba12860d6ba9ade9b5cf2a270f1e9a918",
        "d7d55b45194dc1f696913961f98fb1729e5bec0e1bad9000bd6e644966057c36",
        "c880fccb3916beda0848e09bdb5ce6f27d6778858a18e0e8fd427628f4977317",
    ),
    ("uniform-random", 3, 3, "comp-any"): (
        "803f6d2e4bcdce3576c338c00e8fee87c1b982aab824ee1569339c3a0ecf813e",
        "d7d55b45194dc1f696913961f98fb1729e5bec0e1bad9000bd6e644966057c36",
        "c880fccb3916beda0848e09bdb5ce6f27d6778858a18e0e8fd427628f4977317",
    ),
    ("uniform-random", 3, 5, "comp-min"): (
        "2c7282c361e9eca87536c97f6e592e6b90f36066730285b4d49e052393a98660",
        "7cfff0bf6c62a6f084777843f5f260270a85da22012fb539d90a80ef9fde325e",
        "3a09d850efb6d0dddea06fbda88f249679eb511fc4da8cba5fc391da60d23443",
    ),
    ("uniform-random", 3, 5, "comp-any"): (
        "8a2750b380e310ae9092515e5731294123cc53524ae958f9ed08f3a3313b320b",
        "7cfff0bf6c62a6f084777843f5f260270a85da22012fb539d90a80ef9fde325e",
        "3a09d850efb6d0dddea06fbda88f249679eb511fc4da8cba5fc391da60d23443",
    ),
    ("merge-chain", 1, 3, "comp-min"): (
        "683e529e9b595bef20e8c819421929a995bc95984b95731f45b81adb05e7246c",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "c7555b06b21ef88f84272723fa9bdded54908ff9bdda3e6ad8748afef2538247",
    ),
    ("merge-chain", 1, 3, "comp-any"): (
        "cefae10e8e509eccb46187fc7905c907d0ffe0086d66f31525a6faadc0b828c6",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "c7555b06b21ef88f84272723fa9bdded54908ff9bdda3e6ad8748afef2538247",
    ),
    ("merge-chain", 1, 5, "comp-min"): (
        "19640c093dd558bf165fcc1f910cefd24faf6bacad935f30fe126578a76a1353",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "c7555b06b21ef88f84272723fa9bdded54908ff9bdda3e6ad8748afef2538247",
    ),
    ("merge-chain", 1, 5, "comp-any"): (
        "7f9b4db629da39c2deafb3e8a30fcd85553b0ecb1fbd78e7cd3e0fa643541386",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "c7555b06b21ef88f84272723fa9bdded54908ff9bdda3e6ad8748afef2538247",
    ),
    ("merge-chain", 2, 3, "comp-min"): (
        "d3c4d988ce2437ce5fb3f92f05d6a9b6ddd3fab7a0c0b7fcd60f6babf29744cf",
        "f88aebbb17e89025d007efdf395cb1974f77a42c4bdc5b3e742c0303ee38c0ff",
        "be401badbf07755a62e0713695a879105ae7ba7e698e5bbd1cf296be92ed09c1",
    ),
    ("merge-chain", 2, 3, "comp-any"): (
        "a5658a35e63927f563ad0f142a94a06bc092b305a4eacefb9f7dbcc5da9c2a72",
        "f88aebbb17e89025d007efdf395cb1974f77a42c4bdc5b3e742c0303ee38c0ff",
        "be401badbf07755a62e0713695a879105ae7ba7e698e5bbd1cf296be92ed09c1",
    ),
    ("merge-chain", 2, 5, "comp-min"): (
        "e0cc51147ab2b9a8351c2d6413df90a8d30150b0d8cbcde8464e5a175be6c3f2",
        "0e37a9cb43ce5807f63e683501fcb4b49ef44158e97c098d2980a632257139c3",
        "3dafca1574609dae27027f92fa63dfecf94d30eee069740f6da1815eb17097d2",
    ),
    ("merge-chain", 2, 5, "comp-any"): (
        "0069f2b2cf595331d2e2478adda9273217e3141a0ba112bcd21fb6f15117bd43",
        "0e37a9cb43ce5807f63e683501fcb4b49ef44158e97c098d2980a632257139c3",
        "3dafca1574609dae27027f92fa63dfecf94d30eee069740f6da1815eb17097d2",
    ),
    ("merge-chain", 3, 3, "comp-min"): (
        "c2dfe80141d28242c9b64630d4b3791af5b7a995d8441096f15fea3a608caa07",
        "0e37a9cb43ce5807f63e683501fcb4b49ef44158e97c098d2980a632257139c3",
        "56048bf82a1c95d3fbd293e516ec108600494aaac38da870d6e9d539032e121d",
    ),
    ("merge-chain", 3, 3, "comp-any"): (
        "2559f813a454348f16c723bf3e245d580f6895ecd6d39882ca3afd43c22cdb83",
        "0e37a9cb43ce5807f63e683501fcb4b49ef44158e97c098d2980a632257139c3",
        "56048bf82a1c95d3fbd293e516ec108600494aaac38da870d6e9d539032e121d",
    ),
    ("merge-chain", 3, 5, "comp-min"): (
        "89cc81309dd016da0d93f34beea6718d6ed129e784dd50425a7fa213c9843189",
        "cb5d6864280c9edfc39d290c5ec234abbe023b315af08c30deec4dbc99ec1138",
        "e805b605b5385ad30e6c7519cd9479fb106fcbf196105ae2acbd8408fff1a1c2",
    ),
    ("merge-chain", 3, 5, "comp-any"): (
        "39cf94a8d81e430beb2d5a01b66c1135caacb540e3299fec8c2fb82dbf5ea2c1",
        "cb5d6864280c9edfc39d290c5ec234abbe023b315af08c30deec4dbc99ec1138",
        "e805b605b5385ad30e6c7519cd9479fb106fcbf196105ae2acbd8408fff1a1c2",
    ),
    ("split-probe", 1, 3, "comp-min"): (
        "452d7c00fe77009475c34c5fef3c85b1121c8ec0a2043925d533280b9e536e10",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "c7555b06b21ef88f84272723fa9bdded54908ff9bdda3e6ad8748afef2538247",
    ),
    ("split-probe", 1, 3, "comp-any"): (
        "bed67f23d5ef36fae36fcbf15ffc89cd19d39a2a598e5c87fcea3e2fa1d4da84",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "c7555b06b21ef88f84272723fa9bdded54908ff9bdda3e6ad8748afef2538247",
    ),
    ("split-probe", 1, 5, "comp-min"): (
        "3583b7e3b7cd92141fd6763208b325ce7889e3451902df046242a3736fd3da7e",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "c7555b06b21ef88f84272723fa9bdded54908ff9bdda3e6ad8748afef2538247",
    ),
    ("split-probe", 1, 5, "comp-any"): (
        "cec9af110610ccc002d523212f56f6193f02d019ed3191b04d7f57ed782cde5e",
        "68ba4b4a53f1bde2bda105dc77f856d71fd7d33a6d480d7121d50700544dcff0",
        "c7555b06b21ef88f84272723fa9bdded54908ff9bdda3e6ad8748afef2538247",
    ),
    ("split-probe", 2, 3, "comp-min"): (
        "4635f10c7ae679f195c3075aa6fbfe1edce40b533926f18842d1eade75f79297",
        "b4e58b4b0ea670af6541a90eea6352d7df6f049620e88c81aba0d1609d58b88b",
        "7b4a0845745e34f30ac449b44f835862774d2678e11d951d3ce78d4ab1488507",
    ),
    ("split-probe", 2, 3, "comp-any"): (
        "4dfae2584c90c14ae4c759abf5b9099b967fcdcbe3af7837c699a20747d4e7d6",
        "b4e58b4b0ea670af6541a90eea6352d7df6f049620e88c81aba0d1609d58b88b",
        "7b4a0845745e34f30ac449b44f835862774d2678e11d951d3ce78d4ab1488507",
    ),
    ("split-probe", 2, 5, "comp-min"): (
        "a39840cb03bd6ad7f93a07e23eae5b8d51e71b51d3901b31dee32170742a4a73",
        "b4e58b4b0ea670af6541a90eea6352d7df6f049620e88c81aba0d1609d58b88b",
        "7b4a0845745e34f30ac449b44f835862774d2678e11d951d3ce78d4ab1488507",
    ),
    ("split-probe", 2, 5, "comp-any"): (
        "2e53a4eb36ee5f23d9a7ded5f71dd21f69e9b59ce60809dc04ef578191210cdc",
        "b4e58b4b0ea670af6541a90eea6352d7df6f049620e88c81aba0d1609d58b88b",
        "7b4a0845745e34f30ac449b44f835862774d2678e11d951d3ce78d4ab1488507",
    ),
    ("split-probe", 3, 3, "comp-min"): (
        "76222740ee3a7a020bba7f3b92e2d8fef3e4a46957cc02f0de8d0e6a601eba4a",
        "f88aebbb17e89025d007efdf395cb1974f77a42c4bdc5b3e742c0303ee38c0ff",
        "813ee8afa02be64d4bb5a327cb286270abfb6c6b5bb65902f450736612111ed5",
    ),
    ("split-probe", 3, 3, "comp-any"): (
        "364e20f33aa761afa6c064f13390998c8a82956b058d795d2ce1069c7250e29c",
        "f88aebbb17e89025d007efdf395cb1974f77a42c4bdc5b3e742c0303ee38c0ff",
        "813ee8afa02be64d4bb5a327cb286270abfb6c6b5bb65902f450736612111ed5",
    ),
    ("split-probe", 3, 5, "comp-min"): (
        "65ada3891c62f2b3911135eb49fcd2e7ec96e76ff1a021a30021c627534698b0",
        "f88aebbb17e89025d007efdf395cb1974f77a42c4bdc5b3e742c0303ee38c0ff",
        "813ee8afa02be64d4bb5a327cb286270abfb6c6b5bb65902f450736612111ed5",
    ),
    ("split-probe", 3, 5, "comp-any"): (
        "4a2ebbdea36519d6c7215b462c33c2063d9b4b1bd8d88c543834323be2eda823",
        "f88aebbb17e89025d007efdf395cb1974f77a42c4bdc5b3e742c0303ee38c0ff",
        "813ee8afa02be64d4bb5a327cb286270abfb6c6b5bb65902f450736612111ed5",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(kind, k, l, algorithm, events_path, capsys):
    argv = [
        "simulate",
        "--gen", kind,
        "--k", str(k),
        "--l", str(l),
        "--len", str(LENGTH),
        "--seed", str(SEED),
        "--algorithm", algorithm,
    ]
    if k * l <= 8:
        argv.append("--opt")
    capsys.readouterr()
    assert cli.main(argv + ["--events", str(events_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    json_out = captured.out
    assert cli.main(argv + ["--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    events = events_path.read_text(encoding="utf-8")
    return _sha(json_out), _sha(captured.out), _sha(events)


@pytest.mark.parametrize("kind,k,l,algorithm", CASES)
def test_simulate_output_digests(kind, k, l, algorithm, tmp_path, capsys):
    got = run_case(kind, k, l, algorithm, tmp_path / "events.jsonl", capsys)
    assert got == DIGESTS[(kind, k, l, algorithm)]
