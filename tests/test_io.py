import pytest

from stsramsey import EdgeColoring, HoleCertificate, bose, fano
from stsramsey.io import (
    FormatError,
    format_coloring,
    format_hole,
    format_system,
    parse_coloring,
    parse_hole,
    parse_system,
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
    text = format_coloring(c)
    assert text.startswith("colors 3\n")
    assert parse_coloring(text, system) == c


def test_coloring_wrong_length():
    system = fano()
    with pytest.raises(FormatError):
        parse_coloring("colors 3\n0\n1\n", system)


def test_hole_round_trip():
    h = HoleCertificate(k=3, a=2, parts=(frozenset([0, 1]), frozenset([2, 3]),
                                         frozenset([4, 5])))
    assert parse_hole(format_hole(h)) == h


def test_hole_bad_json():
    with pytest.raises(FormatError):
        parse_hole("{\"k\": 3}")
