import subprocess
import sys

import numpy as np
import pytest

from f1sketch.cli import CSV_HEADER, main


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


def test_exit_code_usage_error(capsys):
    assert main(["run"]) == 1  # missing required arguments
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
