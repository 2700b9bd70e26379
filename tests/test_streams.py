import io
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from f1sketch import generate, hashing, read_stream, write_stream
from f1sketch.oracle import ExactState
from f1sketch.streams import Distribution, Stream, StreamParseError, parse_text

# the kernel (when it loaded) and numpy as the first text reader
READERS = [k for k in (hashing._kernel,) if k is not None] + [None]


def numpy_parse(body: bytes):
    """`hashing.parse_plain` through its numpy twin."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hashing, "_kernel", None)
        return hashing.parse_plain(body)


def replay(stream) -> ExactState:
    state = ExactState(stream.n)
    state.update_many(stream.items, stream.deltas)
    return state


# -- parsing ------------------------------------------------------------------


def test_parse_header_and_records():
    s = parse_text(["# n=10", "# a comment", "3 5", "", "10 -2"])
    assert s.n == 10
    assert list(s.items) == [3, 10]
    assert list(s.deltas) == [5, -2]


def test_parse_infers_domain_without_header():
    s = parse_text(["4 1", "9 2"])
    assert s.n == 9


def test_parse_errors_carry_line_numbers():
    with pytest.raises(StreamParseError) as e:
        parse_text(["# n=5", "1 2 3"])
    assert e.value.line == 2
    with pytest.raises(StreamParseError) as e:
        parse_text(["# n=5", "ok nope"])
    assert e.value.line == 2
    with pytest.raises(StreamParseError) as e:
        parse_text(["# n=5", "1 1", "6 1"])
    assert e.value.line == 3
    with pytest.raises(StreamParseError) as e:
        parse_text(["0 1"])
    assert e.value.line == 1
    with pytest.raises(StreamParseError):
        parse_text([])  # no records and no header: domain unknown
    with pytest.raises(StreamParseError):
        parse_text(["# n=zero"])


def test_header_only_stream_is_empty_and_valid():
    s = parse_text(["# n=7"])
    assert s.n == 7 and len(s) == 0


def test_parse_rejects_delta_beyond_counter_range():
    with pytest.raises(StreamParseError) as e:
        parse_text(["# n=2", f"1 {1 << 63}"])
    assert e.value.line == 2
    parse_text(["# n=2", f"1 {(1 << 63) - 1}"])  # boundary value still parses


def test_late_header_is_checked_against_earlier_records():
    s = parse_text(["2 1", "", "3 2", "# n=3", "1 5"])
    assert s.n == 3 and list(s.items) == [2, 3, 1]
    with pytest.raises(StreamParseError) as e:
        parse_text(["5 1", "7 2", "# n=3"])
    assert e.value.line == 1
    assert str(e.value) == "line 1: item 5 outside declared domain [1, 3]"
    with pytest.raises(StreamParseError) as e:
        parse_text(["1 1", "2 1", "# c", "6 1", "9 1", "# n=5"])
    assert e.value.line == 4


# -- the vectorized reader against the line reader ------------------------------

# around the 18-character fast-path limit and the int64 range
EDGE_VALUES = [0, 1, 2, 9, 10**16, 10**17 - 1, 10**17, 10**18 - 1, 10**18,
               2**63 - 1, 2**63, 10**19, 10**20, -1, -(10**16), -(10**17 - 1),
               -(10**17), -(2**63), -(2**63) - 1, -(10**19)]


def _token(value: int, zeros: int) -> str:
    return ("-" if value < 0 else "") + "0" * zeros + str(abs(value))


_tokens = st.one_of(
    st.builds(_token, st.one_of(st.integers(-3, 12), st.sampled_from(EDGE_VALUES),
                                st.integers(-(2**64), 2**64)),
              st.integers(0, 3)),
    st.just("-0"))
_gaps = st.sampled_from([" ", "  ", "\t", " \t"])
_lines = st.one_of(
    st.tuples(st.sampled_from(["", " "]), _tokens, _gaps, _tokens, st.sampled_from(["", " "]))
    .map("".join),
    st.lists(_tokens, max_size=3).map(" ".join),
    st.sampled_from(["", " ", "  ", "# n=5", "# n=0", "# comment"]))
_headers = st.one_of(
    st.just(""),
    st.builds("# n={}{}".format,
              st.one_of(st.integers(0, 12), st.sampled_from(["007", "", "x", 10**18 - 1, 10**18])),
              st.sampled_from(["\n", "\r\n", "", " \n"])))
_streams = st.builds(
    lambda header, lines, end: header + "\n".join(lines) + end,
    _headers, st.lists(_lines, max_size=8), st.sampled_from(["\n", ""]))


def _typo(text: str, typo) -> str:
    """`text` with the character at position typo[0] (modulo its length)
    replaced by typo[1], or unchanged when typo is None."""
    if typo is None or not text:
        return text
    at = typo[0] % len(text)
    return text[:at] + typo[1] + text[at + 1:]


# many records, so most lines take the kernel's word-wise path: tokens of 1
# to 9 digits, around its 7-digit limit, with blank lines and trailing
# spaces, and at most one character replaced, such as ':' and '/' that
# border the digits
_long_texts = st.builds(
    _typo,
    st.lists(st.tuples(st.integers(0, 10**9), st.integers(-(10**9), 10**9), st.integers(0, 2),
                       st.sampled_from(["\n", "\n", "\n", " \n", "\n\n", "\n \n"])),
             min_size=1, max_size=80)
    .map(lambda records: "".join(f"{'0' * z}{i} {d}{end}" for i, d, z, end in records)),
    st.one_of(st.none(), st.tuples(st.integers(0, 10**6), st.sampled_from(":/\t-+\r \n0"))))
_soups = st.builds(
    lambda header, body: header + body,
    _headers, st.text(alphabet="0123456789-+_.#n= \t\r\n", max_size=40))


def _outcome(read):
    try:
        s = read()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return (s.n, s.items.dtype, s.items.tolist(), s.deltas.dtype, s.deltas.tolist(),
            s.items.flags.c_contiguous and s.deltas.flags.c_contiguous)


@given(st.one_of(_streams, _soups, _long_texts).map(str.encode))
@example(b"# n=0\n")                    # header n >= 1
@example(b"1 \r2\n")                    # byte set: '\r' breaks the line
@example(b"1 2\n3 -\n")                 # lone '-' read as 0
@example(b"1 2\n3\n")                   # odd token count
@example(b"1 9223372036854775808\n")    # token length: numpy saturates
@example(b"1\n2\n")                     # line break inside a record
@example(b"1 2 3 4\n")                  # no line break between records
@example(b"# n=3\n \n")                 # blank text read as one 0
@example(b"1-2 3\n")                    # numpy stops short of the end
@example(b"0 1\n")                      # item >= 1
@example(b"# n=3\n4 1\n")               # item <= n
@example(b"")                           # no header and no records
@example(b"# n=5\n1 -100000000000000000\n")   # a 19-byte token: both fast readers decline
@example(b"# n=5\n3 -0\n")                    # "-0" is 0
@example(b"# n=5\n1 --1\n")                   # a second '-'
@example(b"# n=5\n1 2\n3 4")                  # the last record has no line break
@example(b"\n\n1 2  \n   \n\n\n3 4 \n\n")      # blank runs and trailing spaces
@example(b"# n=7\n")                          # header only
@example(b"# n=7")                            # header only, no line break
@settings(max_examples=400, deadline=None)
def test_read_stream_matches_line_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("differential") / "s.txt"
    path.write_bytes(data)
    want = _outcome(lambda: parse_text(data.decode("ascii").splitlines()))
    for kernel in READERS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            assert _outcome(lambda: read_stream(str(path))) == want, kernel
            m.setattr(sys, "stdin", io.StringIO(data.decode("ascii")))
            assert _outcome(lambda: read_stream("-")) == want, kernel


@given(st.one_of(_streams, _soups, _long_texts).map(str.encode))
@example(b"1234567 7654321\n12345678 1\n1 12345678\n9 9\n")  # 7 digits word-wise, 8 not
@example(b"1 -99999999999999999\n999999999999999999 0")   # 18 bytes: read
@example(b"1 -999999999999999999\n")                      # 19 bytes: declined
@example(b"1 1000000000000000000\n")                      # 19 digits: declined
@example(b"\n \n")                                        # blank: no records
@settings(max_examples=200, deadline=None)
def test_kernel_reads_exactly_its_shape(data):
    # past the header the kernel, and its numpy twin, read a text exactly
    # when every token is an optional '-' and digits, 18 bytes at most, two
    # to a non-blank line, split only by ' ' and '\n'; they then read each
    # line's two integers
    body = data.split(b"\n", 1)[1] if data.startswith(b"#") and b"\n" in data else data
    lines = [line.split() for line in body.split(b"\n")]
    shaped = set(body) <= set(b"0123456789- \n") and all(
        not tokens or len(tokens) == 2 and all(re.fullmatch(rb"-?[0-9]{1,17}|[0-9]{18}", t)
                                               for t in tokens)
        for tokens in lines)
    for kernel in READERS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hashing, "_kernel", kernel)
            got = hashing.parse_plain(body)
        assert (got is not None) == shaped
        if shaped:
            assert np.stack(got, axis=1).tolist() == [[int(t) for t in tokens]
                                                      for tokens in lines if tokens]
            assert all(a.dtype == np.int64 and a.flags.c_contiguous for a in got)


@pytest.mark.skipif(hashing._kernel is None, reason="needs the C kernel")
@given(st.one_of(_streams, _soups, _long_texts).map(str.encode))
@example(b"1 2\r\n3 4\r\n")                 # carriage returns
@example(b"1 -999999999999999999\n")          # a 19-byte token
@example(b"1 2\n3 -\n")                       # a lone '-'
@example(b"1 2\n3\n")                         # a lone token
@example(b"\n \n")                            # blank: no records
@settings(max_examples=400, deadline=None)
def test_numpy_takes_no_text_the_kernel_declines(data):
    # the numpy twin reads what the kernel reads and declines what it
    # declines, so a text the kernel declines goes straight to `parse_text`
    body = data.split(b"\n", 1)[1] if data.startswith(b"#") and b"\n" in data else data
    got, want = numpy_parse(body), hashing.parse_plain(body)
    assert (got is None) == (want is None)
    if want is not None:
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_kernel_spot_check_table_is_what_numpy_reads():
    # `hashing._load_kernel` checks the kernel's parse against the numpy
    # twin on these texts: the twin reads the first as `parse_text` does
    # and declines the others
    stream = parse_text(hashing._PARSE_SPOT.decode("ascii").splitlines())
    got = numpy_parse(hashing._PARSE_SPOT)
    assert np.stack(got, axis=1).tolist() == np.stack([stream.items, stream.deltas],
                                                      axis=1).tolist()
    assert len(stream) == 6
    for declined in hashing._PARSE_DECLINED:
        assert numpy_parse(declined) is None


def test_read_stream_non_ascii(tmp_path):
    path = tmp_path / "s.txt"
    path.write_bytes("# n=5\n1 2\n\u00e9\n".encode("utf-8"))
    with pytest.raises(StreamParseError) as e:
        read_stream(str(path))
    assert e.value.line == 3 and "non-ASCII byte 0xc3" in str(e.value)


def test_read_stream_non_ascii_line_counts_like_the_line_reader(tmp_path):
    # '\r' ends a line for parse_text, so it does for the error's line too
    path = tmp_path / "s.txt"
    path.write_bytes(b"# a comment\r\n1 2\r3 4 # \xff\n")
    with pytest.raises(StreamParseError) as e:
        read_stream(str(path))
    assert e.value.line == 3
    path.write_bytes(b"\x80")
    with pytest.raises(StreamParseError) as e:
        read_stream(str(path))
    assert e.value.line == 1


@pytest.mark.parametrize("line", ["1_0 2", "3 1_0", "\u0663 2", "1 \u0662"])
def test_parse_text_refuses_underscores_and_non_ascii_digits(line):
    # int() would read "1_0" as 10 and the Arabic-Indic digit three as 3
    with pytest.raises(StreamParseError) as e:
        parse_text(["# n=50", line])
    assert e.value.line == 2 and "non-integer field" in str(e.value)


def test_read_stream_refuses_non_ascii_digits_on_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("# n=5\n1 2\n\u0663 2\n"))
    with pytest.raises(StreamParseError) as e:
        read_stream("-")
    assert e.value.line == 3 and "non-ASCII byte" in str(e.value)


def test_read_stream_refuses_non_ascii_on_stdin_as_in_a_file(tmp_path, monkeypatch):
    text = "# caf\u00e9\n1 2\n"
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(StreamParseError) as from_file:
        read_stream(str(path))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    with pytest.raises(StreamParseError) as from_stdin:
        read_stream("-")
    assert str(from_stdin.value) == str(from_file.value) == "line 1: non-ASCII byte 0xc3"


@pytest.mark.parametrize("header", ["# n=1_0", "# n=\u0663", "# n=0x10"])
def test_parse_text_reads_the_header_as_ascii_digits(header):
    # int() would read "1_0" as 10 and the Arabic-Indic digit three as 3
    with pytest.raises(StreamParseError) as e:
        parse_text([header, "7 1"])
    assert e.value.line == 1 and "bad domain header" in str(e.value)
    assert parse_text(["# n= 12 ", "7 1"]).n == 12


def test_parse_text_keeps_a_leading_plus(tmp_path):
    s = parse_text(["# n=50", "+3 +4", "5 -2"])
    assert s.items.tolist() == [3, 5] and s.deltas.tolist() == [4, -2]
    path = tmp_path / "s.txt"
    path.write_bytes(b"# n=50\n+3 +4\n5 -2\n")  # '+' leaves the vectorized reader
    assert read_stream(str(path)).items.tolist() == [3, 5]


def test_text_round_trip(tmp_path):
    path = str(tmp_path / "s.txt")
    orig = Stream(12, np.array([1, 5, 12]), np.array([3, -4, 10**12]))
    write_stream(path, orig)
    back = read_stream(path)
    assert back.n == 12
    assert (back.items == orig.items).all()
    assert (back.deltas == orig.deltas).all()


def test_binary_round_trip(tmp_path):
    path = str(tmp_path / "s.bin")
    orig = Stream(1000, np.array([1, 999, 7]), np.array([-(2**40), 5, 0]))
    write_stream(path, orig, binary=True)
    back = read_stream(path, binary=True)
    assert back.n == 1000
    assert (back.items == orig.items).all()
    assert (back.deltas == orig.deltas).all()


def test_binary_writer_rejects_ids_beyond_uint32(tmp_path):
    path = tmp_path / "big.bin"
    stream = Stream(2**33, np.array([5, 2**32, 7]), np.array([1, 1, 1]))
    with pytest.raises(ValueError, match="uint32"):
        write_stream(str(path), stream, binary=True)
    assert not path.exists()
    edge = Stream(2**32 - 1, np.array([1, 2**32 - 1]), np.array([-(2**63), 2**63 - 1]))
    write_stream(str(path), edge, binary=True)
    assert path.stat().st_size == 16 + 2 * 12
    back = read_stream(str(path), binary=True)
    assert (back.items == edge.items).all() and (back.deltas == edge.deltas).all()


def test_binary_errors(tmp_path):
    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as fh:
        fh.write(b"NOTMAGIC")
    with pytest.raises(StreamParseError):
        read_stream(path, binary=True)
    with open(path, "wb") as fh:
        fh.write(b"F1SKBIN\x00" + b"\x01\x00\x00\x00\x00\x00\x00\x00" + b"\xff")
    with pytest.raises(StreamParseError):
        read_stream(path, binary=True)


def test_binary_header_n_zero_is_refused_like_the_text_header(tmp_path):
    path = tmp_path / "zero.bin"
    write_stream(str(path), Stream(1, np.array([1]), np.array([1])), binary=True)
    blob = bytearray(path.read_bytes())
    blob[8:16] = (0).to_bytes(8, "little")
    for body in (bytes(blob), bytes(blob[:16])):  # with a record, and header only
        path.write_bytes(body)
        with pytest.raises(StreamParseError, match="^declared n must be >= 1$"):
            read_stream(str(path), binary=True)
    with pytest.raises(StreamParseError, match="declared n must be >= 1"):
        parse_text(["# n=0"])


def test_binary_reader_reports_first_bad_record(tmp_path):
    path = str(tmp_path / "dom.bin")
    write_stream(path, Stream(50, np.array([1, 50, 7, 3, 9]), np.array([1, 2, 3, 4, 5])),
                 binary=True)
    with open(path, "r+b") as fh:
        # declare n=8: records 2 (item 50) and 5 (item 9) fall outside and
        # the first of them is reported
        fh.seek(8)
        fh.write((8).to_bytes(8, "little"))
    with pytest.raises(StreamParseError) as info:
        read_stream(path, binary=True)
    assert info.value.line == 2
    assert str(info.value) == "line 2: item 50 outside declared domain [1, 8]"
    with open(path, "r+b") as fh:
        fh.seek(16 + 12 * 4)
        fh.write((0).to_bytes(4, "little"))
    with open(path, "r+b") as fh:
        fh.seek(8)
        fh.write((60).to_bytes(8, "little"))
    with pytest.raises(StreamParseError, match="^line 5: item 0 outside declared domain"):
        read_stream(path, binary=True)


def test_binary_reader_empty_body_and_truncation(tmp_path):
    path = str(tmp_path / "empty.bin")
    with open(path, "wb") as fh:
        fh.write(b"F1SKBIN\x00" + (5).to_bytes(8, "little"))
    s = read_stream(path, binary=True)
    assert s.n == 5 and len(s) == 0
    assert s.items.dtype == np.int64 and s.deltas.dtype == np.int64
    with open(path, "wb") as fh:
        fh.write(b"F1SKBIN\x00" + (5).to_bytes(4, "little"))
    with pytest.raises(StreamParseError, match="truncated binary header"):
        read_stream(path, binary=True)
    with open(path, "wb") as fh:
        fh.write(b"F1SKBIN\x00" + (5).to_bytes(8, "little") + bytes(13))
    with pytest.raises(StreamParseError, match="truncated binary record"):
        read_stream(path, binary=True)


# -- generation ---------------------------------------------------------------


def test_uniform_insert_only():
    s = generate("uniform", n=10, m=10, seed=1)
    assert len(s) == 10
    assert (s.deltas == 1).all()
    assert s.items.min() >= 1 and s.items.max() <= 10


def test_uniform_turnstile_has_negatives():
    s = generate("uniform", n=10, m=400, seed=1, turnstile=True)
    assert (s.deltas == -1).sum() > 0 and (s.deltas == 1).sum() > 0


def test_planted_profile_exact():
    s = generate("planted(3,1000,5)", n=100, m=100, seed=3)
    f = replay(s).frequencies
    assert (np.abs(f) == 1000).sum() == 3
    assert set(np.abs(f[3:])) <= {1, 2, 3, 4, 5}
    assert len(s) == 100


def test_planted_padding_preserves_profile():
    base = generate("planted(3,1000,5)", n=100, m=100, seed=3)
    padded = generate("planted(3,1000,5)", n=100, m=150, seed=3)
    assert len(padded) == 150
    assert (replay(base).frequencies == replay(padded).frequencies).all()
    churned = generate("planted(3,1000,5)", n=100, m=151, seed=3, turnstile=True)
    assert len(churned) == 151
    assert (replay(base).frequencies == replay(churned).frequencies).all()
    assert (churned.deltas < 0).sum() > 0


def test_planted_requires_enough_records():
    with pytest.raises(ValueError):
        generate("planted(3,1000,5)", n=100, m=50, seed=3)


def test_zipf_head_dominates():
    s = generate("zipf(1.1)", n=1000, m=20000, seed=5)
    f = replay(s).frequencies
    assert f[0] > 10 * f[500:].mean()
    assert len(s) == 20000


def test_adversarial_profile():
    s = generate("adversarial", n=50, m=80, seed=2)
    f = replay(s).frequencies
    scale = max(1.0, 80 / (2 * np.sqrt(50)))
    want = np.maximum(1, np.round(scale / np.sqrt(np.arange(1, 51)))).astype(int)
    want[0] += max(0, 80 - want.sum())  # item 1 absorbs rounding
    assert (np.abs(f) == want).all()
    assert len(s) == 80
    turns = generate("adversarial", n=50, m=80, seed=2, turnstile=True)
    assert (replay(turns).frequencies < 0).sum() > 0


def test_generation_is_deterministic(tmp_path):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    write_stream(a, generate("zipf(1.3)", n=500, m=3000, seed=9))
    write_stream(b, generate("zipf(1.3)", n=500, m=3000, seed=9))
    assert open(a, "rb").read() == open(b, "rb").read()
    c = str(tmp_path / "c.txt")
    write_stream(c, generate("zipf(1.3)", n=500, m=3000, seed=10))
    assert open(a, "rb").read() != open(c, "rb").read()


def test_distribution_parsing():
    assert Distribution.parse("zipf") == Distribution("zipf", (1.1,))
    assert Distribution.parse("zipf(2)") == Distribution("zipf", (2.0,))
    assert Distribution.parse("planted(3, 10, 2)") == Distribution("planted", (3, 10, 2))
    assert Distribution.parse("uniform") == Distribution("uniform", ())
    for bad in ("nope", "zipf(1,2)", "planted(1)", "uniform(3)", "zipf(0)",
                "planted(0,5,5)", "zipf(1.1", "adversarial(1)"):
        with pytest.raises(ValueError):
            Distribution.parse(bad)


def test_generate_validation():
    with pytest.raises(ValueError):
        generate("uniform", n=0, m=5, seed=1)
    with pytest.raises(ValueError):
        generate("uniform", n=5, m=0, seed=1)
    with pytest.raises(ValueError):
        generate("planted(10,100,5)", n=10, m=20, seed=1)  # heavy_count >= n
    with pytest.raises(ValueError, match="cannot pad"):  # 10 unit records cannot split
        generate("planted(1,1,1)", n=10, m=20, seed=1)
    with pytest.raises(ValueError, match="unknown distribution 'nope'"):
        generate(Distribution("nope", ()), n=10, m=20, seed=1)  # built past `parse`
