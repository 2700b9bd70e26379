import subprocess
import sys

import numpy as np
import pytest

from f1sketch import Estimator, EstimatorConfig, generate, read_stream
from f1sketch.cli import CSV_HEADER, build_parser, exact_f1_of, main, run_trial
from f1sketch.oracle import ExactState
from f1sketch.streams import Stream


def run_cli(*args, capsys=None):
    if capsys is not None:
        capsys.readouterr()  # drop output from earlier setup calls
    code = main(list(args))
    out = capsys.readouterr() if capsys else None
    return code, out


def gen(tmp_path, name="s.txt", dist="zipf(1.1)", n=1000, m=5000, seed=1, extra=()):
    path = str(tmp_path / name)
    code = main(["generate", "--dist", dist, "--n", str(n), "--m", str(m),
                 "--seed", str(seed), "--out", path, *extra])
    assert code == 0
    return path


def test_csv_header_is_pinned():
    assert CSV_HEADER == ("trial,seed,exact_f1,est_f1,rel_err,est_heavy,"
                          "est_light,heavy_count,wall_ns_per_update")


def test_generate_run_round_trip(tmp_path, capsys):
    path = gen(tmp_path)
    code, out = run_cli("run", path, "--epsilon", "0.5", "--seed", "3",
                        "--oracle", capsys=capsys)
    assert code == 0
    lines = out.out.splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == 9
    assert float(fields[2]) == 5000.0  # insert-only stream: exact F1 = m
    assert "relative error" in out.out


@pytest.mark.parametrize("oracle", [True, False])
def test_run_row_is_pinned(oracle, tmp_path, capsys):
    # every field but the timing is a function of the stream and the seed;
    # without --oracle no exact F1 is computed, and it and rel_err are empty
    path = gen(tmp_path, seed=4)
    code, out = run_cli("run", path, "--epsilon", "0.5", "--seed", "3",
                        *(["--oracle"] if oracle else []), capsys=capsys)
    assert code == 0
    stream = read_stream(path)
    est = Estimator(EstimatorConfig(accuracy=0.5, n=stream.n, seed=3))
    est.update_many(stream.items, stream.deltas)
    r = est.estimate()
    exact = exact_f1_of(stream)
    head = f"0,3,{exact!r},{r.total!r},{abs(r.total - exact) / exact!r}," if oracle else \
        f"0,3,,{r.total!r},,"
    row = out.out.splitlines()[1]
    assert row.startswith(f"{head}{r.heavy!r},{r.light!r},{r.heavy_count},")
    assert row.count(",") == 8 and float(row.rsplit(",", 1)[1]) > 0
    assert ("relative error" in out.out) == oracle
    rel_err = run_trial(stream, 0.5, 3, exact if oracle else None).rel_err
    assert rel_err == (abs(r.total - exact) / exact if oracle else None)


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    import f1sketch.cli as cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        path = gen(tmp_path, m=100)
        assert run_cli("run", path, "--epsilon", "0.5", capsys=capsys)[0] == 0
        assert main(["run"]) == 1 and main(["--help"]) == 0
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_run_empty_stream(tmp_path, capsys):
    path = str(tmp_path / "empty.txt")
    with open(path, "w") as fh:
        fh.write("# n=42\n")
    code, out = run_cli("run", path, "--epsilon", "0.5", capsys=capsys)
    assert code == 0
    assert float(out.out.splitlines()[1].split(",")[3]) == 0.0


def test_run_single_item(tmp_path, capsys):
    path = str(tmp_path / "one.txt")
    with open(path, "w") as fh:
        fh.write("# n=10\n1 7\n")
    code, out = run_cli("run", path, "--epsilon", "0.5", "--oracle", capsys=capsys)
    assert code == 0
    row = out.out.splitlines()[1].split(",")
    assert float(row[3]) == 7.0 and float(row[4]) == 0.0


def test_run_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("# n=5\n2 3\n2 4\n"))
    code, out = run_cli("run", "-", "--epsilon", "0.5", "--oracle", capsys=capsys)
    assert code == 0
    assert float(out.out.splitlines()[1].split(",")[3]) == 7.0


def test_eval_single_trial(tmp_path, capsys):
    path = gen(tmp_path)
    out_csv = str(tmp_path / "rows.csv")
    code, _ = run_cli("eval", path, "--epsilon", "0.5", "--trials", "1",
                      "--seed", "5", "--out", out_csv, capsys=capsys)
    assert code == 0
    lines = open(out_csv).read().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_eval_deterministic_stream_always_succeeds(tmp_path, capsys):
    path = str(tmp_path / "one.txt")
    with open(path, "w") as fh:
        fh.write("# n=3\n1 9\n")
    out_csv = str(tmp_path / "rows.csv")
    code, out = run_cli("eval", path, "--epsilon", "0.5", "--trials", "4",
                        "--seed", "0", "--out", out_csv, capsys=capsys)
    assert code == 0
    assert "success_fraction=1.0000" in out.out


def test_eval_matches_separate_runs(tmp_path, capsys):
    path = gen(tmp_path, m=2000)
    out_csv = str(tmp_path / "rows.csv")
    code, _ = run_cli("eval", path, "--epsilon", "0.5", "--trials", "3",
                      "--seed", "11", "--out", out_csv, capsys=capsys)
    assert code == 0
    eval_rows = [line.split(",")[:8] for line in open(out_csv).read().splitlines()[1:]]
    for t in range(3):
        code, out = run_cli("run", path, "--epsilon", "0.5", "--seed", str(11 + t),
                            "--oracle", capsys=capsys)
        assert code == 0
        row = out.out.splitlines()[1].split(",")[:8]
        row[0] = str(t)  # run always reports trial 0
        assert row == eval_rows[t]


def test_eval_parallel_matches_serial(tmp_path, capsys):
    path = gen(tmp_path, m=2000)
    serial = str(tmp_path / "serial.csv")
    parallel = str(tmp_path / "parallel.csv")
    code, _ = run_cli("eval", path, "--epsilon", "0.5", "--trials", "4",
                      "--seed", "2", "--out", serial, capsys=capsys)
    assert code == 0
    code, _ = run_cli("eval", path, "--epsilon", "0.5", "--trials", "4",
                      "--seed", "2", "--out", parallel, "--jobs", "2", capsys=capsys)
    assert code == 0
    strip = lambda p: [line.split(",")[:8] for line in open(p).read().splitlines()]
    assert strip(serial) == strip(parallel)


def test_eval_parallel_with_more_trials_than_jobs(tmp_path, capsys):
    path = gen(tmp_path, m=1500)
    serial = str(tmp_path / "serial.csv")
    parallel = str(tmp_path / "parallel.csv")
    common = ("eval", path, "--epsilon", "0.5", "--trials", "7", "--seed", "11")
    assert run_cli(*common, "--out", serial, capsys=capsys)[0] == 0
    assert run_cli(*common, "--out", parallel, "--jobs", "2", capsys=capsys)[0] == 0
    strip = lambda p: [line.split(",")[:8] for line in open(p).read().splitlines()]
    rows = strip(parallel)
    assert rows == strip(serial)
    assert [row[:2] for row in rows[1:]] == [[str(t), str(11 + t)] for t in range(7)]


@pytest.mark.parametrize("jobs, trials, workers", [("64", "2", 2), ("3", "5", 3), ("8", "1", None)])
def test_eval_starts_no_more_workers_than_trials(jobs, trials, workers, tmp_path, capsys,
                                                 monkeypatch):
    # a forked pool starts every worker at once, each holding the stream;
    # this stand-in records the pool size and runs the trials in-process
    import concurrent.futures

    from f1sketch import cli

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, params):
            return map(fn, params)

    monkeypatch.setattr(cli, "_worker_stream", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    path = gen(tmp_path, m=1500)
    out = str(tmp_path / "rows.csv")
    assert run_cli("eval", path, "--epsilon", "0.5", "--trials", trials, "--jobs", jobs,
                   "--out", out, capsys=capsys)[0] == 0
    assert sizes == ([] if workers is None else [workers])
    assert len(open(out).read().splitlines()) == 1 + int(trials)


def test_eval_summary_statistics(tmp_path, capsys):
    path = gen(tmp_path)
    out_csv = str(tmp_path / "rows.csv")
    code, out = run_cli("eval", path, "--epsilon", "0.5", "--trials", "5",
                        "--seed", "1", "--out", out_csv, capsys=capsys)
    assert code == 0
    summary = out.out.splitlines()[-1]
    for token in ("success_fraction=", "mean_rel_err=", "median_rel_err=", "p95_rel_err="):
        assert token in summary
    errs = np.array([float(l.split(",")[4]) for l in open(out_csv).read().splitlines()[1:]])
    assert f"success_fraction={float((errs <= 0.5).mean()):.4f}" in summary


def test_binary_flag_round_trip(tmp_path, capsys):
    path = gen(tmp_path, name="s.bin", extra=("--binary",))
    code, out = run_cli("run", path, "--epsilon", "0.5", "--binary", "--oracle",
                        capsys=capsys)
    assert code == 0
    assert float(out.out.splitlines()[1].split(",")[2]) == 5000.0


def test_exit_code_usage_error(tmp_path, capsys):
    assert main(["run"]) == 1  # missing required arguments
    # F1 only: neither command takes a moment order --p
    path, rows = gen(tmp_path, m=100), str(tmp_path / "rows.csv")
    assert main(["run", path, "--epsilon", "0.5", "--p", "0.7"]) == 1
    assert main(["eval", path, "--epsilon", "0.5", "--trials", "1", "--out", rows,
                 "--p", "0.7"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["generate", "--dist", "bogus", "--n", "5", "--m", "5",
                 "--out", "/dev/null"]) == 1


def test_exit_code_config_error(tmp_path, capsys):
    path = gen(tmp_path)
    assert main(["run", path, "--epsilon", "0.9"]) == 1


def test_exit_code_parse_error(tmp_path, capsys):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("# n=5\n1 2\nbroken line here\n")
    code, out = run_cli("run", path, "--epsilon", "0.5", capsys=capsys)
    assert code == 2
    assert "line 3" in out.err


def test_exit_code_non_ascii_stream(tmp_path, capsys):
    path = tmp_path / "accent.txt"
    path.write_bytes("# n=5\n1 2\né\n".encode("utf-8"))
    code, out = run_cli("run", str(path), "--epsilon", "0.5", capsys=capsys)
    assert code == 2
    assert "line 3: non-ASCII byte" in out.err


@pytest.mark.parametrize("header", ["# n=1_0", "# n=\u0663"])
def test_exit_code_header_not_ascii_digits_on_stdin(header, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(header + "\n7 1\n"))
    code, out = run_cli("run", "-", "--epsilon", "0.5", capsys=capsys)
    assert code == 2
    assert "line 1: " in out.err


def test_exit_code_late_header_below_earlier_item(tmp_path, capsys):
    path = str(tmp_path / "late.txt")
    with open(path, "w") as fh:
        fh.write("9 4\n# n=2\n")
    code, out = run_cli("run", path, "--epsilon", "0.5", capsys=capsys)
    assert code == 2
    assert "line 1: item 9 outside declared domain [1, 2]" in out.err


def binary_header(tmp_path, n: int) -> str:
    """A binary stream file declaring domain size n, with one record (1, 1)."""
    path = tmp_path / "header.bin"
    path.write_bytes(b"F1SKBIN\x00" + n.to_bytes(8, "little") + (1).to_bytes(4, "little")
                     + (1).to_bytes(8, "little", signed=True))
    return str(path)


def test_exit_code_binary_header_n_zero(tmp_path, capsys):
    code, out = run_cli("run", binary_header(tmp_path, 0), "--epsilon", "0.5", "--binary",
                        capsys=capsys)
    assert code == 2
    assert out.err == "error: declared n must be >= 1\n"


def test_exit_code_domain_beyond_the_hash_field(tmp_path, capsys):
    # a domain the GF(2**61 - 1) hashes cannot hold is refused by name,
    # before the oracle would size n exact counters
    text = tmp_path / "wide.txt"
    text.write_text("# n=12345678901234567890\n1 1\n")
    rows = str(tmp_path / "rows.csv")
    for path, fmt in ((binary_header(tmp_path, 2**62), ["--binary"]), (str(text), [])):
        for command in (["run", path, "--oracle"], ["eval", path, "--trials", "1", "--out", rows]):
            code, out = run_cli(*command, "--epsilon", "0.5", *fmt, capsys=capsys)
            assert code == 1
            assert "is not below 2**61 - 1, the largest domain" in out.err


def test_oracle_follows_the_records_not_the_declared_domain(tmp_path, capsys):
    # a dense exact vector of 10**12 counters would need 7.28 TiB
    path = tmp_path / "wide.txt"
    path.write_text("# n=1000000000000\n1 1\n")
    code, out = run_cli("run", str(path), "--epsilon", "0.5", "--oracle", capsys=capsys)
    assert code == 0
    assert "exact F1       : 1\n" in out.out and "relative error : 0\n" in out.out
    rows = tmp_path / "rows.csv"
    code, out = run_cli("eval", str(path), "--epsilon", "0.5", "--trials", "1",
                        "--out", str(rows), capsys=capsys)
    assert code == 0 and "success_fraction=1.0000" in out.out
    assert rows.read_text().splitlines()[1].split(",")[2] == "1.0"


@pytest.mark.parametrize("dist,turnstile", [("zipf(1.1)", False), ("uniform", True),
                                             ("planted(3,500,2)", True)])
def test_exact_f1_equals_the_dense_oracle(dist, turnstile):
    stream = generate(dist, n=500, m=4000, seed=9, turnstile=turnstile)
    state = ExactState(stream.n)
    state.update_many(stream.items, stream.deltas)
    assert exact_f1_of(stream) == float(state.moment(1.0))


@pytest.mark.parametrize("n", [1000, 10**6, 10**12])
def test_exact_f1_follows_the_records_in_both_regimes(n, tmp_path):
    # 2,000 records sum by item over [1, 1000] and by rank over the wider
    # domains, past any dense vector at n = 10**12; the oracle holds the
    # items renumbered by rank, which keeps every |f_i|
    rng = np.random.default_rng(7)
    pool = np.unique(np.concatenate([[1, n], rng.integers(1, n + 1, size=300)]))
    items = rng.choice(pool, size=2000)
    deltas = rng.integers(-9, 10, size=2000)
    items = np.concatenate([items, pool[:50], pool[:50]])  # 50 items cancel to 0
    deltas = np.concatenate([deltas, np.full(50, 7), np.full(50, -7)])
    path = tmp_path / "s.txt"
    path.write_text(f"# n={n}\n" + "".join(f"{i} {v}\n" for i, v in zip(items, deltas)))
    stream = read_stream(str(path))
    uniq, rank = np.unique(items, return_inverse=True)
    state = ExactState(uniq.size)
    state.update_many(rank + 1, deltas)
    assert stream.n == n and exact_f1_of(stream) == float(state.moment(1.0)) > 0


def test_exact_f1_reads_a_sum_of_minus_2_63_as_magnitude_2_63():
    # int64's abs(-2**63) is -2**63 itself; read as uint64 it is 2**63
    stream = Stream(3, np.array([1, 1, 2]), np.array([-2**63 + 1, -1, 5]))
    state = ExactState(stream.n)
    state.update_many(stream.items, stream.deltas)
    assert state.moment(1.0) == 2**63 + 5 and exact_f1_of(stream) == float(2**63 + 5)
    assert state.moment(0.5) == 2.0**31.5 + 5**0.5
    assert state.residual(1.0, 0) == 2**63 + 5 and state.residual(1.0, 1) == 5
    assert state.residual_of_set(1.0, [2]) == 2**63 and state.residual_of_set(1.0, [1]) == 5


def test_eval_refuses_fewer_than_one_trial(tmp_path, capsys):
    path = gen(tmp_path, m=100)
    out_csv = tmp_path / "rows.csv"
    code, out = run_cli("eval", path, "--epsilon", "0.5", "--trials", "0",
                        "--out", str(out_csv), capsys=capsys)
    assert code == 1 and out.err == "error: need at least one trial\n"
    assert not out_csv.exists()


def test_eval_refuses_fewer_than_one_job(tmp_path, capsys):
    path = gen(tmp_path, m=100)
    for jobs in ("0", "-3"):
        out_csv = tmp_path / f"rows{jobs}.csv"
        code, out = run_cli("eval", path, "--epsilon", "0.5", "--trials", "2", "--jobs", jobs,
                            "--out", str(out_csv), capsys=capsys)
        assert code == 1
        assert out.err == "error: need at least one job\n"
        assert not out_csv.exists()


def test_exit_code_missing_file():
    assert main(["run", "/nonexistent/stream.txt", "--epsilon", "0.5"]) == 1


def test_exit_code_internal_invariant(tmp_path, capsys):
    # a delta near the counter ceiling trips the overflow guard
    path = str(tmp_path / "huge.txt")
    with open(path, "w") as fh:
        fh.write(f"# n=5\n1 {1 << 62}\n")
    code, out = run_cli("run", path, "--epsilon", "0.5", capsys=capsys)
    assert code == 3
    assert "internal error" in out.err


def test_generate_binary_with_large_ids_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "x.bin"
    code, out = run_cli("generate", "--dist", "uniform", "--n", "5000000000", "--m", "10",
                        "--binary", "--out", str(path), capsys=capsys)
    assert code == 1
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert not path.exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "f1sketch.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout
