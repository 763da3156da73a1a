import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "artifact_digests.py")
_spec = importlib.util.spec_from_file_location("artifact_digests", _PATH)
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)

EXPECTED = [
    "hetero_nav     maie           0123456789abcdef fedcba9876543210",
    "av_nav         maie           1111111111111111 2222222222222222",
    "",
]


def test_the_same_lines_differ_nowhere_whatever_the_padding():
    printed = ["hetero_nav maie 0123456789abcdef fedcba9876543210", "av_nav  maie  1111111111111111 2222222222222222"]
    assert artifact_digests.differences(printed, EXPECTED) == []


def test_each_differing_or_missing_case_is_named_once():
    printed = [
        "hetero_nav     maie           0123456789abcdef ffffffffffffffff",  # the checkpoint column moved
        "mining         fixed_weights  3333333333333333 4444444444444444",  # a case the file lacks
    ]
    assert artifact_digests.differences(printed, EXPECTED) == [
        "hetero_nav maie: printed 0123456789abcdef ffffffffffffffff; expected 0123456789abcdef fedcba9876543210",
        "av_nav maie: not printed; expected 1111111111111111 2222222222222222",
        "mining fixed_weights: printed 3333333333333333 4444444444444444; not in the expected lines",
    ]


def test_expect_exits_one_and_names_the_differing_line(tmp_path, monkeypatch, capsys):
    expect = tmp_path / "expected.txt"
    expect.write_text("\n".join(EXPECTED))
    digests = {("hetero_nav", "maie"): ("0123456789abcdef", "fedcba9876543210"),
               ("av_nav", "maie"): ("1111111111111111", "2222222222222223")}
    monkeypatch.setattr(artifact_digests, "CASES", tuple(digests))
    monkeypatch.setattr(artifact_digests, "case_digests", lambda env, method, root: digests[env, method])
    assert artifact_digests.main(["--expect", str(expect)]) == 1
    assert capsys.readouterr().err == (
        "differs: av_nav maie: printed 1111111111111111 2222222222222223; expected 1111111111111111 2222222222222222\n"
    )
    digests["av_nav", "maie"] = ("1111111111111111", "2222222222222222")
    assert artifact_digests.main(["--expect", str(expect)]) == 0
    assert capsys.readouterr().err == ""
