import pytest

from stsramsey import EdgeColoring, HoleCertificate, bose, fano
from stsramsey.io import (
    FormatError,
    format_coloring,
    format_hole,
    format_system,
    parse_hole,
    parse_system,
    read_hole,
    read_system,
    write_system,
)


def test_system_round_trip(tmp_path):
    system = bose(15)
    path = tmp_path / "b15.sts"
    write_system(system, path)
    back = read_system(path)
    assert back == system


def test_system_format_is_canonical():
    from stsramsey import build_system
    ts = build_system(3, [(0, 1, 2)])
    assert format_system(ts) == "# sts v1\n3 1\n0 1 2\n"
    assert format_system(ts) == format_system(ts)


def test_comments_ignored():
    text = "# a comment\n3 1\n# another\n0 1 2\n"
    assert parse_system(text).m == 1


def test_bad_header():
    with pytest.raises(FormatError):
        parse_system("3\n0 1 2\n")


def test_wrong_triple_count():
    with pytest.raises(FormatError):
        parse_system("7 2\n0 1 2\n")


def test_unsorted_triple_rejected():
    with pytest.raises(FormatError):
        parse_system("3 1\n2 1 0\n")


def test_coloring_round_trip():
    system = fano()
    c = EdgeColoring(system=system, r=3, colors=(0, 1, 2, 0, 1, 2, 0))
    assert format_coloring(c) == "colors 3\n0\n1\n2\n0\n1\n2\n0\n"


@pytest.mark.parametrize("read", [read_system, read_hole])
def test_non_utf8_file_is_a_format_error(tmp_path, read):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(FormatError, match="not UTF-8"):
        read(path)


def test_hole_round_trip():
    h = HoleCertificate(k=3, a=2, parts=(frozenset([0, 1]), frozenset([2, 3]),
                                         frozenset([4, 5])))
    assert parse_hole(format_hole(h)) == h


def test_hole_bad_json():
    with pytest.raises(FormatError):
        parse_hole("{\"k\": 3}")


@pytest.mark.parametrize("k, a", [("3.9", "1"), ('"3"', "1"), ("true", "1"),
                                  ("3", "1.0"), ("3", '"1"'), ("3", "true")])
def test_hole_non_integer_k_or_a_rejected(k, a):
    with pytest.raises(FormatError, match="is not an integer"):
        parse_hole('{"k": %s, "a": %s, "parts": [[0], [1], [2]]}' % (k, a))
