"""Pinned sha256 digests of the CLI's stdout, so that reports stay byte for
byte what they were: a change that moves any real in its twelfth digit,
reorders a key or alters a table line fails here.

``verify FILE`` is left out because each result is labelled with its path.
"""

import hashlib

import pytest

from loopwalks.cli import main

GRAPHS = {
    "kneser": ["--family", "kneser", "--k", "3", "--loops", "0,3,5,8,13,21,34"],
    "petersen": ["--family", "petersen", "--loops", "0,1,2,7"],
    "k34": ["--family", "complete_bipartite", "--a", "3", "--b", "4",
            "--sigma-a", "2", "--sigma-b", "1"],
    "vertex": ["--family", "path", "--n", "1", "--loops", "0"],
}

COMMANDS = {"walks": ["--kmax", "9"], "moments": [], "census": []}

DIGESTS = {
    ("kneser", "walks", "json"): "cf2967973812db983d09fcc4f0dd51664a2b91005db092f7184e792e3a6ac95d",
    ("kneser", "walks", "table"): "58a9b7e6a29dfddf065e43196aa00a25707bb39d14fe5a510841c00b2fe6cee0",
    ("kneser", "moments", "json"): "3bc64eea46ec311e762ada9338495ebc906f318c3c0be98954d287e6e4caf6cb",
    ("kneser", "moments", "table"): "167a4235958bfe228a415cec806490223e54e11f584cc65b690a4b3a9d06c090",
    ("kneser", "census", "json"): "fa8ad47a2036e1032554a3bdc9583544c8831d3204d62c98f1466e293a7c932d",
    ("kneser", "census", "table"): "5db10ab570b643fb5f515a73b8004c6630084ad34e5e28fe325e5bcd55988d5d",
    ("petersen", "walks", "json"): "ed40c00aa145f97497462751fe5f711d3c07578ec7aea6d1d6be350601e19f93",
    ("petersen", "walks", "table"): "2a19571623015ca3bc78873db010994475a78d6f09ffb6f02da842518f17d4f5",
    ("petersen", "moments", "json"): "80dd20072e11b5a307e36ce2ae036c8e5cf6e00d7ea6ed4d0713bfc715d7f5f5",
    ("petersen", "moments", "table"): "a57ecb4cbc8823e6b76fbe9eede29a0e743d14d41bd916d3727d9a37637a1719",
    ("petersen", "census", "json"): "e1f3303ab6b8e1e73d3cc3688177c8ec547eee3197a0def8ef1c2af4741955f8",
    ("petersen", "census", "table"): "13ae8adb00da26a1c8997abf7b8577baf556b3f6ec5927426eb9844996fd05ee",
    ("k34", "walks", "json"): "3943d6cc40fbcec3964744ace73a078304e154fa325edb826f4b54382d1b0e85",
    ("k34", "walks", "table"): "01ff76bb62323cd24a9120fc2513d7f35e6b4cd0372513170827f3a324a57b2f",
    ("k34", "moments", "json"): "bd0c97a2382e92887261e1b46aaabb6b9f303b2f54b5327657e97f752a452389",
    ("k34", "moments", "table"): "c2ecfbedc6ae4b91c93102a794de9d77e9b7c3192113ff74344ac2997dae4f26",
    ("k34", "census", "json"): "2d88c92a861e57301b482bd0496bea8ee4ab1fd84289ceb50cceae36c9cef077",
    ("k34", "census", "table"): "ea75b53e38e1406a8b49f6a3407d466080db45417fb49f6660cb4b873957bf28",
    ("vertex", "walks", "json"): "1f95a1e87a6277b3740837a3848119a04a4e5c108d6ff2551c188241d977c7b0",
    ("vertex", "walks", "table"): "38164a02104e9f10d4ac66be8f042276d854c5f77bc3452ddcd0975c64c7c213",
    ("vertex", "moments", "json"): "01aabf7c7a8b550405719e0bbb37356b40976a9246d35fe116aed6ecdd087c72",
    ("vertex", "moments", "table"): "4ba0de0edc00b2fafba16c7ce7d59b2c6e635fc2edc353f67c3ca77b88b204c7",
    ("vertex", "census", "json"): "88eaed5f5ca6f947c1af9e77ad16619752a6f382b6362078cdf0f5a4e7bcfaeb",
    ("vertex", "census", "table"): "b1c8ac5e57bd09afbb253162280042aaf4d3c0959670ec92cd2551ec025d534a",
}

VERIFY_SAMPLE_SEED_42 = "de9ce0cc29766cb6b0d7034bb68858b8600d01e66ed028b23af8820b0e96a2ef"

# Sampled verify reports in both formats, with their options off the
# defaults; the last one skips 42 of its graphs with a FloatOverflow note.
VERIFY_DIGESTS = {
    "table": (["--sample", "1000", "--seed", "42", "--format", "table"],
              "6ae7db564909df16e90991c3038587ac0ed81a52d35da1a38ca99eead4ad3a3f"),
    "table-depth-rst": (["--sample", "200", "--seed", "5", "--chain-depth", "20",
                         "--rst", "1,0,2", "--rst", "2,3,3", "--format", "table"],
                        "05d51f19412fa33dd97e3cb8e3a8bd8ec09d3cf9e9ebf37b0589effad7603a27"),
    "overflow-notes": (["--sample", "100", "--seed", "1", "--chain-depth", "512"],
                       "46cb36443f4f7f526ed740724639cb8cdd741bce20756a73d5de78303c64e953"),
}


def _stdout_digest(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    files = {}
    for name, flags in GRAPHS.items():
        files[name] = str(directory / f"{name}.txt")
        assert main(["generate", *flags, "-o", files[name]]) == 0
    return files


@pytest.mark.parametrize("graph,command,fmt", sorted(DIGESTS))
def test_report_digest(capsys, graph_files, graph, command, fmt):
    argv = [command, graph_files[graph], *COMMANDS[command], "--format", fmt]
    assert _stdout_digest(capsys, argv) == (0, DIGESTS[graph, command, fmt])


def test_verify_sample_digest(capsys):
    argv = ["verify", "--sample", "1000", "--seed", "42"]
    assert _stdout_digest(capsys, argv) == (0, VERIFY_SAMPLE_SEED_42)


@pytest.mark.parametrize("case", sorted(VERIFY_DIGESTS))
def test_verify_option_digests(capsys, case):
    flags, digest = VERIFY_DIGESTS[case]
    assert _stdout_digest(capsys, ["verify", *flags]) == (0, digest)
